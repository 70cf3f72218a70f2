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
//	  └─ millivolt conversion
//	       └─ sigdsp.StreamECGFilter   (noise suppression + baseline removal)
//	            └─ peak.StreamDetector (à trous scales, adaptive thresholds,
//	               modulus-maxima pairing, refractory arbitration)
//	                 └─ beat window from the raw-sample ring
//	                      └─ downsampling → core.Embedded (integer RP + NFC)
//
// PushChunk runs a chunk sigdsp.Block (64) samples at a time through stack
// buffers, so a stream's heap is its operator state and its fixed-size
// rings. The detector stops at every threshold-window boundary, which is
// where peaks are finalized, so each beat's DetectedAt is the raw index of
// the sample that completed its window: the completing detection index
// plus the DWT and filter delays, the same for any chunking. The raw ring
// covers Delay() + beatset.Before + one block of samples (1,943 in 2,048
// entries). Each stage reports its group delay, and the whole pipeline is
// bit-identical to the batch reference (BatchClassify) except within
// Delay() samples of the record end, where batch thresholds use future
// samples a stream cannot see. TestPipelineMatchesBatch holds the two paths
// to beat-for-beat equality.
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

// checkGeometry rejects a model whose input dimension does not follow from
// the beat window at its downsampling factor.
func checkGeometry(emb *core.Embedded) error {
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
	if emb == nil {
		return nil, errors.New("pipeline: nil classifier")
	}
	if err := emb.Validate(); err != nil {
		return nil, err
	}
	if err := checkGeometry(emb); err != nil {
		return nil, err
	}
	base := max(cfg.BaseSample, 0)
	det, err := peak.NewStreamDetector(detectorConfig(base))
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		emb:    emb,
		base:   base,
		filter: sigdsp.NewStreamECGFilter(baseline),
		det:    det,
		window: make([]int32, windowLen),
		ds:     make([]int32, emb.D),
	}
	p.scr.Grow(emb)
	// The ring must still hold sample max(0, peak-Before) when a peak
	// finalizes, at worst Delay() samples after the peak position, while
	// PushChunk has written up to a block of raw samples past that one:
	// Delay() + Before + Block = 1,943 samples, in 2,048 entries.
	p.raw = make([]int32, nextPow2(p.Delay()+beatset.Before+sigdsp.Block))
	p.rawMask = len(p.raw) - 1
	return p, nil
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

// Push consumes one raw ADC sample and returns the beats it finalized
// (usually none — beats surface in bursts as threshold windows complete).
// It is PushChunk over a one-sample chunk. The returned slice is reused by
// the next call; copy it to retain.
//
//rpbeat:allocfree
func (p *Pipeline) Push(sample int32) []BeatResult {
	one := [1]int32{sample}
	p.PushChunk(one[:], nil)
	return p.out
}

// PushChunk consumes a whole chunk of raw ADC samples and invokes emit once
// with every beat the chunk finalized, in input order (emit is not called
// for chunks that finalize nothing). The beats do not depend on how the
// stream is split into chunks (see the package comment); this is what the
// engine's workers and /v1/stream run. The slice passed to emit is reused
// by the next Push/PushChunk call; copy it to retain.
//
//rpbeat:allocfree
func (p *Pipeline) PushChunk(samples []int32, emit func([]BeatResult)) {
	p.out = p.out[:0]
	raw, mask := p.raw, p.rawMask
	for len(samples) > 0 {
		m := min(len(samples), sigdsp.Block)
		var y [sigdsp.Block]float64
		for i, v := range samples[:m] {
			raw[(p.n+i)&mask] = v
			y[i] = ecgsyn.ToMillivolts(v)
		}
		samples = samples[m:]
		p.n += m
		// The k filtered samples belong to the block's last k raw samples,
		// and the detector stops at each window boundary, so at-1 is the
		// raw sample that finalized the peaks of each call.
		k := p.filter.PushChunk(y[:m], y[:m])
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
	if len(p.out) > 0 && emit != nil {
		emit(p.out)
	}
}

// Flush ends the stream, draining the detector's final threshold window and
// pending candidate. Push must not be called afterwards.
func (p *Pipeline) Flush() []BeatResult {
	p.out = p.out[:0]
	if p.flushed {
		return nil
	}
	p.flushed = true
	for _, pk := range p.det.Flush() {
		p.classify(pk, p.n-1)
	}
	return p.out
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

// BatchClassify is the whole-record reference path: the exact batch
// operators (sigdsp.FilterECG, peak.Detect with search-back off,
// sigdsp.WindowInt + DownsampleInt, core.Embedded.Classify) in the
// configuration a Pipeline streams. The streaming results are bit-identical
// to it away from the record tail; it also serves the /v1/classify endpoint,
// where the whole record is available up front.
//
// Each call allocates its own working buffers. Request loops should hold a
// BatchScratch (e.g. in a sync.Pool, as internal/serve does) and call
// BatchClassifyInto instead.
func BatchClassify(ctx context.Context, emb *core.Embedded, lead []int32, cfg Config) ([]BeatResult, error) {
	beats, err := BatchClassifyInto(ctx, emb, lead, cfg, new(BatchScratch))
	if err != nil {
		return nil, err
	}
	out := make([]BeatResult, len(beats))
	copy(out, beats)
	return out, nil
}

// BatchScratch holds the reusable working buffers of one batch
// classification: the millivolt conversion of the record, the per-beat
// window/downsample/projection/grade scratch and the result slice. A zero
// value is ready to use; buffers grow to the largest record seen and are
// reused afterwards. Not safe for concurrent use.
type BatchScratch struct {
	// Samples is the request-scoped raw-sample buffer: callers that decode
	// a wire payload (internal/serve) append the decoded lead into
	// Samples[:0] and pass the result back in as lead, so request bodies
	// reuse one buffer across requests just like the classification
	// scratch below. BatchClassifyInto itself never touches it — it is
	// carried here so one pooled object holds a request's entire working
	// set.
	Samples []int32

	mv       []float64
	filtered []float64
	filt     sigdsp.FilterScratch
	det      peak.Scratch
	window   []int32
	ds       []int32
	cls      core.Scratch
	beats    []BeatResult
}

// BatchClassifyInto is BatchClassify running through the caller's scratch
// buffers: the front-end filter and wavelet decomposition, the detector's
// threshold/candidate lists and all O(beats) buffers are reused across
// calls, so a warm scratch classifies a record with O(1) allocations. The
// returned slice aliases s and is valid until the next call with the same
// scratch; copy it to retain.
//
// The context is honored at the record granularity a request cares about:
// checked on entry, after the front-end (filter + detector, the bulk of the
// work) and every classifyCtxStride beats, so an abandoned request stops
// burning the worker quickly without putting a check in the per-beat hot
// loop. Cancellation returns ctx.Err() (typed by the serving layer).
func BatchClassifyInto(ctx context.Context, emb *core.Embedded, lead []int32, _ Config, s *BatchScratch) ([]BeatResult, error) {
	if emb == nil {
		return nil, errors.New("pipeline: nil classifier")
	}
	if s == nil {
		return nil, errors.New("pipeline: nil scratch")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := emb.Validate(); err != nil {
		return nil, err
	}
	if err := checkGeometry(emb); err != nil {
		return nil, err
	}
	s.mv = growFloat(s.mv, len(lead))
	mv := s.mv[:len(lead)]
	for i, v := range lead {
		mv[i] = ecgsyn.ToMillivolts(v)
	}
	s.filtered = sigdsp.FilterECGInto(s.filtered, mv, baseline, &s.filt)
	peaks := peak.DetectInto(s.filtered, detectorConfig(0), &s.det)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	s.window = growInt32(s.window, windowLen)[:windowLen]
	s.ds = growInt32(s.ds, emb.D)[:emb.D]
	s.cls.Grow(emb)
	s.beats = s.beats[:0]
	for i, pk := range peaks {
		if i%classifyCtxStride == classifyCtxStride-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		sigdsp.WindowIntInto(s.window, lead, pk, beatset.Before)
		sigdsp.DownsampleIntInto(s.ds, s.window, emb.Downsample)
		d := emb.ClassifyInto(s.ds, &s.cls)
		s.beats = append(s.beats, BeatResult{Peak: pk, Decision: d, DetectedAt: len(lead) - 1})
	}
	return s.beats, nil
}

// classifyCtxStride is how many beats the batch loop classifies between
// context checks (~64 beats ≈ one minute of signal per check).
const classifyCtxStride = 64

func growFloat(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}
