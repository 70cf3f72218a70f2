// Package pipeline chains the library's streaming operators into an online
// heartbeat classification engine: raw ADC samples go in a chunk at a time,
// and classified beats come out as soon as they are final — the deployment
// shape of the paper's WBSN node (sub-systems (1) and (3) of Fig. 6) and
// the substrate the serving layer (cmd/rpserve) builds on.
//
// The stages are the exact streaming counterparts of the batch path that
// internal/wbsn runs over whole records:
//
//	raw ADC samples
//	  └─ noise suppression on the counts  ┐
//	       └─ millivolt conversion         │ sigdsp.StreamECGFilter.PushCounts
//	            └─ baseline removal        ┘
//	                 └─ peak.StreamDetector (à trous scales, adaptive thresholds,
//	                    modulus-maxima pairing, refractory arbitration)
//	                      └─ beat window from the raw-sample ring
//	                           └─ downsampling → core.Embedded (integer RP + NFC)
//
// The noise stages take minima and maxima, which commute with the
// strictly increasing count→millivolt map, so running them on the counts
// gives the batch reference's bits.
//
// PushChunk runs a chunk sigdsp.Block (64) samples at a time through stack
// buffers, so a stream's heap is its operator state and its fixed-size
// rings. The detector stops at every threshold-window boundary, which is
// where peaks are finalized, so each beat's DetectedAt is the raw index of
// the sample that completed its window: the completing detection index
// plus the DWT and filter delays, the same for any chunking. The raw ring
// covers Delay() + beatset.Before + one block of samples (1,943 in 2,048
// entries). Flush drains every stage's tail, so PushChunk plus Flush is
// bit-identical to the batch reference (BatchClassify) in every beat's
// position and class, to the record's last sample, for any chunking
// (TestPipelineMatchesBatch, FuzzPipelineMatchesBatch). Classify runs a
// whole record this way, which is how /v1/classify serves.
package pipeline

import (
	"context"
	"errors"
	"fmt"

	"rpbeat/internal/beatset"
	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/nfc"
	"rpbeat/internal/peak"
	"rpbeat/internal/sigdsp"
)

// Config parameterizes a streaming pipeline. The front end itself is fixed
// at the paper's deployment: ecgsyn's 360 Hz MIT-BIH ADC geometry, the
// sigdsp filter and peak detector at their constants, and beatset's
// 100+100-sample beat window.
type Config struct {
	// BaseSample resumes an interrupted stream mid-record: it is the
	// absolute index of the first sample this pipeline will be fed, and it
	// shifts every emitted BeatResult (Peak, DetectedAt) into the original
	// stream's index space while phase-aligning the detector's threshold
	// windows with an uninterrupted run's (peak.Config.StartSample). Feed
	// the pipeline at least ResyncWarmup(cfg) samples of replayed history
	// before the point of interest and the beats it emits past BaseSample +
	// ResyncWarmup are bit-identical to the uninterrupted run — the contract
	// the gateway's failover replay journal is sized by. Zero (the default)
	// is a stream starting at its true beginning. Batch classification
	// ignores it.
	BaseSample int
}

// windowLen is the beat window length; the window starts beatset.Before
// samples ahead of the R peak.
const windowLen = beatset.Before + beatset.After

// baseline is the morphological filter's configuration.
var baseline = sigdsp.DefaultBaselineConfig(ecgsyn.Fs)

// detectorConfig configures the QRS detector of a stream whose first sample
// has absolute index base. SearchBackOff is forced on: search-back needs the
// record-wide median RR, which does not exist online (use internal/wbsn for
// retrospective batch analysis). The detector's input index space is aligned
// with the raw input's (the filter emits output i — the filtered value of
// raw sample i — once input i+Delay() has arrived), so the window phase of a
// resumed stream is base itself.
func detectorConfig(base int) peak.Config {
	return peak.Config{Fs: ecgsyn.Fs, SearchBackOff: true, StartSample: base}
}

// checkModel rejects a missing or invalid model, and one whose input
// dimension does not follow from the beat window at its downsampling
// factor.
func checkModel(emb *core.Embedded) error {
	if emb == nil {
		return errors.New("pipeline: nil classifier")
	}
	if err := emb.Validate(); err != nil {
		return err
	}
	if want := dimAfter(windowLen, emb.Downsample); want != emb.D {
		return fmt.Errorf("pipeline: window %d+%d at downsample %d gives dimension %d, model wants %d",
			beatset.Before, beatset.After, emb.Downsample, want, emb.D)
	}
	return nil
}

// BeatResult is one classified beat.
type BeatResult struct {
	// Peak is the R-peak position, as a sample index into the input stream.
	Peak int
	// Decision is the integer classifier's verdict (N, L, V or U).
	Decision nfc.Decision
	// DetectedAt is the index of the input sample whose arrival finalized
	// this beat; DetectedAt-Peak is the end-to-end latency in samples.
	DetectedAt int
}

// Pipeline is a single-stream online classifier. It is not safe for
// concurrent use; Engine multiplexes many pipelines over a worker pool.
type Pipeline struct {
	emb    *core.Embedded
	base   int // Config.BaseSample
	filter *sigdsp.StreamECGFilter
	det    *peak.StreamDetector

	raw     []int32 // ring of raw ADC counts (power-of-two length)
	rawMask int     // len(raw)-1, for mask-indexing the ring
	n       int     // samples consumed
	flushed bool

	window []int32 // scratch: assembled beat window
	ds     []int32 // scratch: downsampled window
	scr    core.Scratch
	out    []BeatResult
}

// New builds a pipeline around a validated embedded classifier.
func New(emb *core.Embedded, cfg Config) (*Pipeline, error) {
	if err := checkModel(emb); err != nil {
		return nil, err
	}
	base := max(cfg.BaseSample, 0)
	det, err := peak.NewStreamDetector(detectorConfig(base))
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		base:   base,
		filter: sigdsp.NewStreamECGFilter(baseline),
		det:    det,
		window: make([]int32, windowLen),
	}
	p.bind(emb)
	// The ring must still hold sample max(0, peak-Before) when a peak
	// finalizes, at worst Delay() samples after the peak position, while
	// PushChunk has written up to a block of raw samples past that one:
	// Delay() + Before + Block = 1,943 samples, in 2,048 entries.
	p.raw = make([]int32, nextPow2(p.Delay()+beatset.Before+sigdsp.Block))
	p.rawMask = len(p.raw) - 1
	return p, nil
}

// bind points the pipeline at emb, growing the downsampled window and the
// classifier scratch to the model's size.
func (p *Pipeline) bind(emb *core.Embedded) {
	p.emb = emb
	if cap(p.ds) < emb.D {
		p.ds = make([]int32, emb.D)
	}
	p.ds = p.ds[:emb.D]
	p.scr.Grow(emb)
}

func dimAfter(n, downsample int) int {
	if downsample <= 1 {
		return n
	}
	return (n + downsample - 1) / downsample
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Delay returns the worst-case latency, in input samples, between an R peak
// entering the pipeline and its classified beat being emitted: the filter's
// group delay plus the detector's finalization bound.
func (p *Pipeline) Delay() int {
	return p.filter.Delay() + p.det.Delay()
}

// ResyncWarmup returns W, the replay bound of the deterministic-resume
// contract: a fresh pipeline opened with Config.BaseSample = B and fed the
// original stream's samples from B onward emits beats bit-identical to the
// uninterrupted run for every beat finalized past B + W. A replay journal
// that retains the last W samples of uplink therefore makes mid-stream
// failover invisible (internal/gate sizes its journals with this).
//
// The bound stacks every source of left-border divergence a resumed run
// has, each rounded up to its full support:
//
//   - the morphological filter's border replication (≤ 2x its group delay
//     of input history feeds one output);
//   - the à trous decomposition's border replication and the first,
//     shortened threshold window, whose RMS normalization differs from the
//     original's full window (≤ one detector delay + one window);
//   - carried arbitration state (pairing extremum, refractory candidate)
//     seeded inside the divergent region (≤ one more detector delay);
//   - the classification window and suppression slack: the beat window
//     reaches Before samples behind a peak, and the original run's last
//     delivered beat can trail the failure point by a full pipeline delay.
//
// It is deliberately a safe over-approximation (~a dozen seconds of signal
// at the paper's 360 Hz deployment), not a tight one: journal memory is
// cheap, a divergent beat after failover is not. It is the same for every
// Config, since the front end is fixed.
func ResyncWarmup(Config) int {
	filter := sigdsp.NewStreamECGFilter(baseline)
	// detectorConfig forces SearchBackOff, the only constructor error.
	det, err := peak.NewStreamDetector(detectorConfig(0))
	if err != nil {
		panic("pipeline: ResyncWarmup: " + err.Error())
	}
	return 3*filter.Delay() + 2*det.Delay() + det.Window() + windowLen
}

// PushChunk consumes a whole chunk of raw ADC samples and invokes emit once
// with every beat the chunk finalized, in input order (emit is not called
// for chunks that finalize nothing). The beats do not depend on how the
// stream is split into chunks (see the package comment); this is what the
// engine's workers and /v1/stream run. The slice passed to emit is reused
// by the next PushChunk call; copy it to retain.
//
//rpbeat:allocfree
func (p *Pipeline) PushChunk(samples []int32, emit func([]BeatResult)) {
	p.out = p.out[:0]
	p.push(samples)
	if len(p.out) > 0 && emit != nil {
		emit(p.out)
	}
}

// push runs samples through the stages a block at a time and appends the
// beats they finalize to p.out.
//
//rpbeat:allocfree
func (p *Pipeline) push(samples []int32) {
	raw, mask := p.raw, p.rawMask
	for len(samples) > 0 {
		m := min(len(samples), sigdsp.Block)
		for i, v := range samples[:m] {
			raw[(p.n+i)&mask] = v
		}
		// The k filtered samples belong to the block's last k raw samples,
		// and the detector stops at each window boundary, so at-1 is the
		// raw sample that finalized the peaks of each call.
		var y [sigdsp.Block]float64
		k := p.filter.PushCounts(y[:], samples[:m])
		samples = samples[m:]
		p.n += m
		at := p.n - k
		for f := y[:k]; len(f) > 0; {
			used, peaks := p.det.PushChunk(f)
			f = f[used:]
			at += used
			for _, pk := range peaks {
				p.classify(pk, at-1)
			}
		}
	}
}

// Flush ends the stream and returns the beats PushChunk had not emitted,
// each with the last sample as its DetectedAt: the record's end finalized
// them. PushChunk must not be called afterwards. The returned slice is
// reused by the next call; copy it to retain.
//
//rpbeat:allocfree
func (p *Pipeline) Flush() []BeatResult {
	p.out = p.out[:0]
	p.flush()
	return p.out
}

// filterTail is room for the filter's flushed tail, its Delay(): 184
// samples at the fixed front end (TestFrontEndGeometry).
const filterTail = 184

// flush appends the record's remaining beats to p.out, once: the filter's
// tail goes through the detector as PushChunk's samples do, then the
// detector's Flush drains its own.
//
//rpbeat:allocfree
func (p *Pipeline) flush() {
	if p.flushed {
		return
	}
	p.flushed = true
	var tail [filterTail]float64
	for f := tail[:p.filter.Flush(tail[:])]; len(f) > 0; {
		used, peaks := p.det.PushChunk(f)
		f = f[used:]
		for _, pk := range peaks {
			p.classify(pk, p.n-1)
		}
	}
	for _, pk := range p.det.Flush() {
		p.classify(pk, p.n-1)
	}
}

// classifyStride is how many samples Classify pushes per context check.
const classifyStride = 1 << 14

// Classify classifies a whole record with emb, the /v1/classify path: the
// pipeline is re-armed for emb as New builds it (its Config kept), fed the
// record and flushed, so its beats equal BatchClassify's in position and
// class, and its heap is the stream's plus the beats, whatever the record's
// length. Once ctx is done Classify returns ctx.Err(), checked before every
// classifyStride samples. The returned slice is reused by the next call.
//
//rpbeat:allocfree
func (p *Pipeline) Classify(ctx context.Context, emb *core.Embedded, lead []int32) ([]BeatResult, error) {
	if err := checkModel(emb); err != nil {
		return nil, err
	}
	p.bind(emb)
	p.filter.Reset()
	p.det.Reset()
	p.n, p.flushed, p.out = 0, false, p.out[:0]
	for off := 0; off < len(lead); off += classifyStride {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p.push(lead[off:min(off+classifyStride, len(lead))])
	}
	p.flush()
	return p.out, nil
}

// classify cuts the beat window of the peak at pk out of the raw ring (with
// the same edge replication as sigdsp.WindowInt over the samples up to at,
// the one that finalized the beat), downsamples and runs the integer
// RP + NFC classifier.
//
//rpbeat:allocfree
func (p *Pipeline) classify(pk, at int) {
	for i := range p.window {
		j := pk - beatset.Before + i
		if j < 0 {
			j = 0
		}
		if j > at {
			j = at
		}
		p.window[i] = p.raw[j&p.rawMask]
	}
	sigdsp.DownsampleIntInto(p.ds, p.window, p.emb.Downsample)
	d := p.emb.ClassifyInto(p.ds, &p.scr)
	// Indices are kept relative internally (ring masks, detector state) and
	// re-based on emission, so a resumed stream reports absolute positions.
	p.out = append(p.out, BeatResult{
		Peak:       p.base + pk,
		Decision:   d,
		DetectedAt: p.base + at,
	})
}

// BatchClassify is the whole-record reference path that the tests and the
// benchmark hold the served paths to: the batch operators (sigdsp.FilterECG,
// peak.Detect with search-back off, sigdsp.WindowInt + DownsampleInt,
// core.Embedded.Classify) in the configuration a Pipeline streams, over
// record-length buffers. Every beat's DetectedAt is the record's last
// sample. cfg is ignored; ctx is checked once, on entry.
func BatchClassify(ctx context.Context, emb *core.Embedded, lead []int32, _ Config) ([]BeatResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkModel(emb); err != nil {
		return nil, err
	}
	mv := make([]float64, len(lead))
	for i, v := range lead {
		mv[i] = ecgsyn.ToMillivolts(v)
	}
	peaks := peak.Detect(sigdsp.FilterECG(mv, baseline), detectorConfig(0))
	out := make([]BeatResult, len(peaks))
	for i, pk := range peaks {
		w := sigdsp.DownsampleInt(sigdsp.WindowInt(lead, pk, beatset.Before, beatset.After), emb.Downsample)
		out[i] = BeatResult{Peak: pk, Decision: emb.Classify(w), DetectedAt: len(lead) - 1}
	}
	return out, nil
}
