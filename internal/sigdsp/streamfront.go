package sigdsp

// Streaming versions of the two remaining batch front-end operators: the
// complete ECG filter (noise suppression + baseline removal, the software
// equivalent of FilterECG) and the à trous dyadic wavelet transform that
// feeds R-peak detection. Together with StreamMorph these make the entire
// sub-system (1) front end runnable one ADC sample at a time with bounded
// memory — the substrate of internal/pipeline.
//
// Bit-identity contract: every operator here reproduces its batch
// counterpart exactly — including the left signal border, where the batch
// operators shrink their windows (a trailing window over the first samples
// covers exactly the same clipped range) or replicate the edge sample
// (StreamDWT memoizes the first sample of each level). The only divergence
// is the right border: a stream cannot see future samples, so the final
// Delay() outputs of a record are never emitted and must be handled by the
// caller's flush policy.

// StreamECGFilter is the streaming form of FilterECG: morphological noise
// suppression (the averaged open-close / close-open pair) followed by
// baseline-wander removal, with the raw-path delay line needed to align the
// final subtraction. Output sample i is emitted after input sample
// i + Delay() arrives and is bit-identical to FilterECG(x, cfg)[i].
type StreamECGFilter struct {
	// Noise suppression: two parallel 4-stage chains over the same input.
	// oc = Close(Open(x,k),k) = Erode,Dilate,Dilate,Erode;
	// co = Open(Close(x,k),k) = Dilate,Erode,Erode,Dilate.
	oc, co []*StreamMorph
	// Baseline estimation over the suppressed signal:
	// Close(Open(y,openLen),closeLen) = Erode,Dilate (open) then
	// Dilate,Erode (close).
	base []*StreamMorph
	// supRing delays the suppressed signal by the baseline-cascade delay so
	// the subtraction y - baseline is index-aligned.
	supRing []float64
	supN    int
	baseDel int
	total   int
}

// NewStreamECGFilter builds the streaming front end for cfg.
func NewStreamECGFilter(cfg BaselineConfig) *StreamECGFilter {
	k := oddAtLeast(cfg.NoiseElem, 3)
	openL, closeL := cfg.openLen(), cfg.closeLen()
	f := &StreamECGFilter{
		oc: []*StreamMorph{
			NewStreamErode(k), NewStreamDilate(k),
			NewStreamDilate(k), NewStreamErode(k),
		},
		co: []*StreamMorph{
			NewStreamDilate(k), NewStreamErode(k),
			NewStreamErode(k), NewStreamDilate(k),
		},
		base: []*StreamMorph{
			NewStreamErode(openL), NewStreamDilate(openL),
			NewStreamDilate(closeL), NewStreamErode(closeL),
		},
	}
	for _, s := range f.base {
		f.baseDel += s.Delay()
	}
	noiseDel := 0
	for _, s := range f.oc {
		noiseDel += s.Delay()
	}
	f.total = noiseDel + f.baseDel
	f.supRing = make([]float64, f.baseDel+1)
	return f
}

// Delay returns the filter's group delay: output sample i becomes available
// once input sample i+Delay() has been consumed.
func (f *StreamECGFilter) Delay() int { return f.total }

func pushChain(stages []*StreamMorph, x float64) (float64, bool) {
	v, ok := x, true
	for _, s := range stages {
		v, ok = s.Push(v)
		if !ok {
			return 0, false
		}
	}
	return v, true
}

// Push consumes one raw sample and, once the cascade is primed, emits one
// filtered sample (aligned to input index n - Delay()).
func (f *StreamECGFilter) Push(x float64) (float64, bool) {
	a, okA := pushChain(f.oc, x)
	b, okB := pushChain(f.co, x)
	if !okA || !okB { // the chains share stage lengths, so okA == okB
		return 0, false
	}
	sup := 0.5 * (a + b)

	m := f.supN
	f.supRing[m%len(f.supRing)] = sup
	f.supN++
	bl, ok := pushChain(f.base, sup)
	if !ok {
		return 0, false
	}
	i := m - f.baseDel
	return f.supRing[i%len(f.supRing)] - bl, true
}

// streamDWTLevel computes one à trous level as a stream: given the level's
// approximation signal a (arriving one sample at a time), it emits the
// recentered detail sample w[i] and the next-level approximation sample,
// reproducing AtrousDWT exactly (the left border replicates a[0]; the right
// border is never reached by a stream).
type streamDWTLevel struct {
	gap, half int
	buf       []float64
	n         int // input samples consumed
	out       int // next output index
	first     float64
	hasFirst  bool
}

func newStreamDWTLevel(level int) *streamDWTLevel {
	gap := 1 << level
	return &streamDWTLevel{gap: gap, half: gap / 2, buf: make([]float64, 4*gap)}
}

// delay returns how many extra inputs must arrive before output i exists.
func (l *streamDWTLevel) delay() int { return l.half + 2*l.gap }

func (l *streamDWTLevel) push(a float64) (w, next float64, ok bool) {
	if !l.hasFirst {
		l.first, l.hasFirst = a, true
	}
	l.buf[l.n%len(l.buf)] = a
	l.n++

	i := l.out
	if i+l.half+2*l.gap >= l.n {
		return 0, 0, false
	}
	at := func(j int) float64 {
		if j < 0 {
			return l.first
		}
		return l.buf[j%len(l.buf)]
	}
	am := at(i + l.half - l.gap)
	a0 := at(i + l.half)
	ap := at(i + l.half + l.gap)
	app := at(i + l.half + 2*l.gap)
	l.out++
	// Same expressions as AtrousDWT (recentered by half up front).
	return 2 * (ap - a0), (am + 3*a0 + 3*ap + app) / 8, true
}

// StreamDWT is the streaming à trous transform: it consumes one input sample
// per Push and, after Delay() samples of warm-up, emits the detail samples
// W[0..levels-1][i] for one index i per call, bit-identical to
// AtrousDWT(x, levels').W[j][i] for any levels' >= levels (deeper levels do
// not affect shallower ones).
type StreamDWT struct {
	levels []*streamDWTLevel
	// fifo[j] holds detail samples level j has produced but that are not yet
	// aligned with the deeper (slower) levels; head[j] is its logical front.
	fifo [][]float64
	head []int
	out  []float64
	n    int // aligned output samples emitted
}

// NewStreamDWT builds a streaming transform with the given number of detail
// levels (>= 1).
func NewStreamDWT(levels int) *StreamDWT {
	if levels < 1 {
		levels = 1
	}
	d := &StreamDWT{
		levels: make([]*streamDWTLevel, levels),
		fifo:   make([][]float64, levels),
		head:   make([]int, levels),
		out:    make([]float64, levels),
	}
	for j := range d.levels {
		d.levels[j] = newStreamDWTLevel(j)
	}
	return d
}

// Delay returns the total warm-up: detail index i for every level is
// available once input sample i+Delay() has been consumed.
func (d *StreamDWT) Delay() int {
	total := 0
	for _, l := range d.levels {
		total += l.delay()
	}
	return total
}

// Push consumes one input sample. Once all levels have produced detail
// sample i it returns the slice [W0[i], W1[i], ...] and true. The returned
// slice is reused by the next call; copy it to retain.
func (d *StreamDWT) Push(x float64) ([]float64, bool) {
	v := x
	for j, l := range d.levels {
		w, next, ok := l.push(v)
		if !ok {
			break
		}
		d.fifo[j] = append(d.fifo[j], w)
		v = next
	}
	for j := range d.levels {
		if d.head[j] >= len(d.fifo[j]) {
			return nil, false
		}
	}
	for j := range d.levels {
		d.out[j] = d.fifo[j][d.head[j]]
		d.head[j]++
		// Compact drained FIFOs so they stay bounded.
		if d.head[j] == len(d.fifo[j]) {
			d.fifo[j] = d.fifo[j][:0]
			d.head[j] = 0
		} else if d.head[j] > 64 {
			d.fifo[j] = append(d.fifo[j][:0], d.fifo[j][d.head[j]:]...)
			d.head[j] = 0
		}
	}
	d.n++
	return d.out, true
}
