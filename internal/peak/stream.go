package peak

// Streaming (chunk-at-a-time) R-peak detection with bounded memory.
//
// StreamDetector reproduces Detect exactly — same à trous scales, same
// windowed-RMS adaptive thresholds, same modulus-maxima pairing, zero
// crossing localization and refractory arbitration — but consumes the
// filtered lead a chunk at a time. The batch function is the reference:
// on any signal, the peaks a StreamDetector emits are identical to
// Detect(x, cfg) up to the right signal border (the final thresholds of a
// batch run use the last, partial RMS window of the whole record, which a
// stream only sees at Flush; peaks earlier than roughly Delay() samples
// before the end are unaffected).
//
// The one batch feature with no causal equivalent is search-back: it
// re-scans long RR gaps against the *record-wide* median RR, a global
// statistic a stream cannot know. NewStreamDetector therefore requires
// cfg.SearchBackOff to be set, and parity holds against the batch detector
// configured the same way.

import (
	"errors"
	"math"

	"rpbeat/internal/sigdsp"
)

// streamDWTLevels is how many à trous detail levels the detector consumes:
// the detection signal z uses scales 2^2 and 2^3 (levels 1 and 2).
const streamDWTLevels = 3

// StreamDetector is the online QRS detector. Feed it filtered samples with
// PushChunk (or Push, one sample at a time); peak indices come back
// (possibly several per call, usually none) once they are final, i.e. once
// no future sample can change them.
type StreamDetector struct {
	dwt                *sigdsp.StreamDWT
	win, pair, refract int
	// nextWin is how many detection-scale samples complete the window being
	// buffered right now: win - (StartSample mod win) for the first window of
	// a resumed stream (so later boundaries align with an uninterrupted
	// run's), win for every window after it.
	nextWin int

	// Current adaptive-threshold window of the two detection scales.
	wbase int // absolute index of the window's first sample
	wbuf  [2][]float64
	sumsq [2]float64

	// Detection signal, as a ring indexed by absolute sample position
	// modulo ring.
	z    []float64
	ring int
	zN   int // detection-signal samples produced
	scan int // next index to scan for significant extrema

	// Thresholds of the last completed window, which starts at absolute
	// index thrStart, and of the window before it. The extremum scan lags
	// one sample behind the detection signal, so the only earlier index it
	// reads is the previous window's last.
	thr, prevThr float64
	thrStart     int

	havePrev bool // last significant extremum (pair-window state)
	prevPos  int
	prevVal  float64

	hasPending bool // last kept candidate, not yet final (refractory state)
	pending    candidate

	emit    []int
	flushed bool
}

// NewStreamDetector builds a streaming detector. cfg.SearchBackOff must be
// set: search-back needs the record-wide median RR, which does not exist
// online (see the package comment above).
func NewStreamDetector(cfg Config) (*StreamDetector, error) {
	c := cfg.withDefaults()
	if !c.SearchBackOff {
		return nil, errors.New("peak: streaming detection requires Config.SearchBackOff (search-back needs the record-wide median RR)")
	}
	win := int(windowSec * c.Fs)
	if win < 8 {
		win = 8 // windowedRMS applies the same floor
	}
	d := &StreamDetector{
		dwt:     sigdsp.NewStreamDWT(streamDWTLevels),
		win:     win,
		pair:    int(pairSec * c.Fs),
		refract: int(refractorySec * c.Fs),
		scan:    1, // the batch extremum scan starts at index 1
	}
	d.nextWin = win
	if c.StartSample > 0 {
		// Resuming at absolute sample S: shorten the first threshold window
		// to win - (S mod win) samples, so this detector's later window
		// boundaries fall on the same absolute indices as those of a detector
		// that started at sample zero. Only S mod win matters — the wavelet
		// warm-up offsets are the same for both runs and cancel.
		if phase := c.StartSample % win; phase != 0 {
			d.nextWin = win - phase
		}
	}
	d.ring = d.win + d.pair + 16
	d.z = make([]float64, d.ring)
	d.wbuf[0] = make([]float64, 0, d.win)
	d.wbuf[1] = make([]float64, 0, d.win)
	return d, nil
}

// Delay returns the worst-case number of input samples between a peak's
// position and its emission: the wavelet warm-up, up to two threshold
// windows (the detection signal and its own RMS complete per window), and
// the refractory + pairing margin that makes a candidate final.
func (d *StreamDetector) Delay() int {
	return d.dwt.Delay() + 2*d.win + d.refract + d.pair + 2
}

// Window returns the adaptive-threshold window length in samples — the
// quantum of the detector's phase grid, which a resumed stream must align to
// (Config.StartSample) for bit-identical detections.
func (d *StreamDetector) Window() int { return d.win }

// PushChunk consumes a prefix of the filtered lead x: all of it, or up to
// and including the sample that completes the current adaptive-threshold
// window, whichever is shorter. It returns how many samples it consumed and
// the R peaks finalized by them, as absolute sample indices aligned with
// the input; peaks are only ever finalized by a window's last sample, so
// every peak of one call was finalized by x[used-1]. Callers loop until x
// is consumed. The wavelet transform runs straight into the window buffers.
// The returned slice is reused by the next call; copy it to retain.
//
//rpbeat:allocfree
func (d *StreamDetector) PushChunk(x []float64) (used int, peaks []int) {
	d.emit = d.emit[:0]
	w1, w2 := d.wbuf[0], d.wbuf[1]
	f := len(w1)
	used = min(len(x), d.dwt.InputsFor(d.nextWin-f))
	// The detector reads scales 2^2 and 2^3 (levels 1 and 2); level 0 is
	// only the first approximation step.
	dst := [streamDWTLevels][]float64{1: w1[f:d.nextWin], 2: w2[f:d.nextWin]}
	m := d.dwt.PushChunk(dst[:], x[:used])
	w1, w2 = w1[:f+m], w2[:f+m]
	s1, s2 := d.sumsq[0], d.sumsq[1]
	for i := f; i < f+m; i++ {
		s1 += w1[i] * w1[i]
		s2 += w2[i] * w2[i]
	}
	d.wbuf[0], d.wbuf[1] = w1, w2
	d.sumsq[0], d.sumsq[1] = s1, s2
	if len(w1) == d.nextWin {
		d.completeWindow()
	}
	return used, d.emit
}

// Push consumes one sample of the filtered lead and returns the R peaks
// finalized by it, as absolute sample indices (aligned with the input). It
// is PushChunk over a one-sample chunk. The returned slice is reused by the
// next call; copy it to retain.
func (d *StreamDetector) Push(x float64) []int {
	one := [1]float64{x}
	_, peaks := d.PushChunk(one[:])
	return peaks
}

// Flush finishes the stream: the final partial threshold window is processed
// (as the batch windowed RMS does for the record tail) and the pending
// candidate, which no longer has future rivals, is emitted.
func (d *StreamDetector) Flush() []int {
	d.emit = d.emit[:0]
	if d.flushed {
		return nil
	}
	d.flushed = true
	d.completeWindow()
	if d.hasPending {
		d.emit = append(d.emit, d.pending.pos)
		d.hasPending = false
	}
	return d.emit
}

// completeWindow turns the buffered detection-scale samples into detection
// signal + thresholds (exactly windowedRMS + the z formula of decompose) and
// advances the extremum scan.
func (d *StreamDetector) completeWindow() {
	count := len(d.wbuf[0])
	if count == 0 {
		return
	}
	thr1 := math.Sqrt(d.sumsq[0] / float64(count))
	thr2 := math.Sqrt(d.sumsq[1] / float64(count))
	var zs float64
	base := d.wbase
	r := base % d.ring
	for k := 0; k < count; k++ {
		zv := d.wbuf[0][k]/(thr1+1e-300) + d.wbuf[1][k]/(thr2+1e-300)
		d.z[r] = zv
		zs += zv * zv
		r++
		if r == d.ring {
			r = 0
		}
	}
	d.prevThr, d.thr, d.thrStart = d.thr, math.Sqrt(zs/float64(count)), base
	d.zN = base + count
	d.wbase = d.zN
	d.nextWin = d.win // only the first window of a resumed stream is short
	d.wbuf[0] = d.wbuf[0][:0]
	d.wbuf[1] = d.wbuf[1][:0]
	d.sumsq[0], d.sumsq[1] = 0, 0
	d.advance()
}

// advance scans newly available detection-signal samples for significant
// extrema (the detectPass criteria) and finalizes the pending candidate once
// no future candidate can fall inside its refractory period.
func (d *StreamDetector) advance() {
	// Ring positions of scan-1, scan and scan+1, advanced without a
	// division per sample (scan starts at 1, so scan-1 is never negative).
	ring := d.ring
	prev, cur := (d.scan-1)%ring, d.scan%ring
	for d.scan+1 < d.zN {
		i := d.scan
		d.scan++
		next := cur + 1
		if next == ring {
			next = 0
		}
		v, thr := d.z[cur], d.thr
		if i < d.thrStart {
			thr = d.prevThr
		}
		pv, nv := d.z[prev], d.z[next]
		prev, cur = cur, next
		if math.Abs(v) < thresholdFactor*thr {
			continue
		}
		if (v > 0 && v >= pv && v > nv) || (v < 0 && v <= pv && v < nv) {
			d.extremum(i, v)
		}
	}
	// A future candidate's position is at least scan-pair (its pair partner
	// must lie within the pair window of a yet-unscanned extremum), so once
	// that bound clears the refractory period the pending candidate is final.
	if d.hasPending && d.scan-d.pair >= d.pending.pos+d.refract {
		d.emit = append(d.emit, d.pending.pos)
		d.hasPending = false
	}
}

func (d *StreamDetector) extremum(pos int, val float64) {
	if d.havePrev && d.prevVal*val < 0 && pos-d.prevPos <= d.pair {
		zc := d.zeroCross(d.prevPos, pos)
		if zc < 0 {
			zc = (d.prevPos + pos) / 2
		}
		d.candidate(candidate{pos: zc, amp: math.Abs(d.prevVal) + math.Abs(val)})
	}
	d.havePrev, d.prevPos, d.prevVal = true, pos, val
}

// zeroCross is zeroCrossing over the detection-signal ring.
func (d *StreamDetector) zeroCross(lo, hi int) int {
	for i := lo; i < hi; i++ {
		wi := d.z[i%d.ring]
		if wi == 0 {
			return i
		}
		wn := d.z[(i+1)%d.ring]
		if (wi > 0) != (wn > 0) {
			if math.Abs(wi) <= math.Abs(wn) {
				return i
			}
			return i + 1
		}
	}
	return -1
}

// candidate applies the refractory arbitration incrementally: candidates
// arrive position-ordered, so only the last kept one can still be replaced.
func (d *StreamDetector) candidate(c candidate) {
	if !d.hasPending {
		d.pending, d.hasPending = c, true
		return
	}
	if c.pos-d.pending.pos < d.refract {
		if c.amp > d.pending.amp {
			d.pending = c
		}
		return
	}
	d.emit = append(d.emit, d.pending.pos)
	d.pending = c
}
