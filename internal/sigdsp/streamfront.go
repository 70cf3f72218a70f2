package sigdsp

// Streaming versions of the two batch front-end operators: the complete ECG
// filter (noise suppression + baseline removal, the software equivalent of
// FilterECG) and the à trous dyadic wavelet transform that feeds R-peak
// detection. Together they make the entire sub-system (1) front end
// runnable a block of ADC samples at a time with bounded memory — the
// substrate of internal/pipeline.
//
// Bit-identity contract: every operator here reproduces its reference
// exactly (Open/Close composed as SuppressNoise and RemoveBaseline for the
// filter, over its input with −0 read as +0; AtrousDWT for the transform),
// and its output does not depend on how the input is split into chunks.
// At the left border the references shrink their windows (a trailing
// window over the first samples covers exactly the same clipped range) or
// replicate the edge sample (StreamDWT prefills each level's history with
// its first sample). A stream cannot see past its newest sample, so
// PushChunk holds back the last Delay() outputs; Flush writes them at the
// record's end with the references' right border, and Reset readies the
// operator for the next record. The batch FilterECGInto and AtrousDWTInto
// are PushChunk plus Flush.

import "rpbeat/internal/ecgsyn"

// StreamECGFilter is the front-end filter a block at a time: morphological
// noise suppression (the averaged open-close / close-open pair) followed by
// baseline-wander removal, with the delay line that aligns the final
// subtraction. Output sample i is emitted with input sample i + Delay() and
// is bit-identical to RemoveBaseline(SuppressNoise(x, cfg), cfg)[i] over x
// with −0 read as +0, for x in the front end's float domain (orderKey).
type StreamECGFilter struct {
	// Noise suppression: two parallel chains of four 3-sample stages over
	// the same input. oc = Close(Open(x,k),k) = Erode,Dilate,Dilate,Erode;
	// co = Open(Close(x,k),k) = Dilate,Erode,Erode,Dilate. PushChunk runs
	// the chains over order keys, PushCounts over ADC counts.
	oc, co             [4]tap3[int64]
	ocCounts, coCounts [4]tap3[int32]
	// Baseline estimation over the suppressed signal:
	// Close(Open(y,OpenLen),CloseLen) = Erode,Dilate (open) then
	// Dilate,Erode (close), run as Erode OpenLen, Dilate
	// OpenLen+CloseLen-1, Erode CloseLen. Flat centred windows of odd
	// lengths (both are) compose to their union, clipped at both borders
	// alike, and the union's newest maximal sample is the one two
	// newest-wins dilations pick, so the one wedge equals the pair bit for
	// bit, with the pair's delay.
	base [3]wedge
	// sup delays the suppressed signal by the baseline cascade's delay so
	// the subtraction y - baseline is index-aligned: a ring of exactly that
	// many samples, whose slot at supAt holds the sample that far back.
	sup   []float64
	supAt int
	total int
}

// NewStreamECGFilter builds the streaming front end for cfg.
func NewStreamECGFilter(cfg BaselineConfig) *StreamECGFilter {
	ol, cl := cfg.OpenLen(), cfg.CloseLen()
	f := &StreamECGFilter{
		oc:       [4]tap3[int64]{{}, {dilate: true}, {dilate: true}, {}},
		co:       [4]tap3[int64]{{dilate: true}, {}, {}, {dilate: true}},
		ocCounts: [4]tap3[int32]{{}, {dilate: true}, {dilate: true}, {}},
		coCounts: [4]tap3[int32]{{dilate: true}, {}, {}, {dilate: true}},
		base:     [3]wedge{newWedge(ol, false), newWedge(ol+cl-1, true), newWedge(cl, false)},
	}
	for _, w := range f.base {
		f.total += w.right
	}
	f.sup = make([]float64, f.total)
	f.total += len(f.oc) // one sample per 3-sample stage
	return f
}

// Delay returns the filter's group delay: output sample i becomes available
// once input sample i+Delay() has been consumed.
func (f *StreamECGFilter) Delay() int { return f.total }

// PushChunk consumes the raw samples src and writes the filtered samples
// they complete to the front of dst, returning how many: one per input once
// the cascade has filled (the first Delay() inputs complete none), in
// order. dst needs room for len(src) samples and may be src itself. The
// work runs Block samples at a time through stack buffers, so the filter's
// own state is all it keeps between calls. A record goes in through one
// entry, PushChunk or PushCounts. The noise chains run on order keys of
// the samples with −0 read as +0, so equal keys are equal floats and each
// stage picks the sample its batch operator does.
//
//rpbeat:allocfree
func (f *StreamECGFilter) PushChunk(dst, src []float64) int {
	out := 0
	for len(src) > 0 {
		m := min(len(src), Block)
		var a, b [Block]int64
		for i, v := range src[:m] {
			a[i] = orderKey(v + 0) // −0 + 0 is +0
		}
		copy(b[:m], a[:m])
		src = src[m:]
		// Noise suppression: oc in a, co in b. Both chains run four
		// one-sample stages, so they always emit equally many samples.
		k := m
		for i := range f.oc {
			f.co[i].pass(b[:k])
			k = f.oc[i].pass(a[:k])
		}
		var y [Block]float64
		for i := range y[:k] {
			y[i] = 0.5 * (keyFloat(a[i]) + keyFloat(b[i]))
		}
		out += f.removeBaseline(dst[out:], y[:k])
	}
	return out
}

// PushCounts is PushChunk over ADC counts, bit for bit PushChunk of their
// ecgsyn.ToMillivolts: the noise chains run on the counts, and their two
// outputs are converted and averaged as PushChunk averages its own. That
// is exact because each stage outputs one of its inputs, the minimum or
// maximum, and the conversion is strictly increasing and never −0, so the
// count it picks converts to the millivolts PushChunk's stage picks. This
// is the entry internal/pipeline serves through.
//
//rpbeat:allocfree
func (f *StreamECGFilter) PushCounts(dst []float64, src []int32) int {
	out := 0
	for len(src) > 0 {
		m := min(len(src), Block)
		var a, b [Block]int32
		copy(a[:m], src[:m])
		copy(b[:m], src[:m])
		src = src[m:]
		k := m
		for i := range f.ocCounts {
			f.coCounts[i].pass(b[:k])
			k = f.ocCounts[i].pass(a[:k])
		}
		var y [Block]float64
		for i := range y[:k] {
			y[i] = 0.5 * (ecgsyn.ToMillivolts(a[i]) + ecgsyn.ToMillivolts(b[i]))
		}
		out += f.removeBaseline(dst[out:], y[:k])
	}
	return out
}

// removeBaseline takes the suppressed block y (at most Block samples)
// through the baseline cascade and the delay line, writes the filtered
// samples it completes to the front of dst and returns how many. The
// cascade runs over y's order keys, while the delay line swaps each sample
// of y for the one len(f.sup) samples older.
//
//rpbeat:allocfree
func (f *StreamECGFilter) removeBaseline(dst, y []float64) int {
	var b [Block]int64
	keys := b[:len(y)]
	for i, v := range y {
		keys[i] = orderKey(v)
	}
	ring, at := f.sup, f.supAt
	for i := range y {
		y[i], ring[at] = ring[at], y[i]
		at++
		if at == len(ring) {
			at = 0
		}
	}
	f.supAt = at
	n := f.cascade(keys, 0)
	// The n baseline samples belong to the last n delayed samples; the
	// ones before them are the delay line's warm-up.
	for i, k := range keys[:n] {
		dst[i] = y[len(y)-n+i] - keyFloat(k)
	}
	return n
}

// cascade runs the baseline stages from the given one on in place over
// the keys x and returns how many outputs the last wrote to the front of x.
//
//rpbeat:allocfree
func (f *StreamECGFilter) cascade(x []int64, from int) int {
	n := len(x)
	for i := from; i < len(f.base); i++ {
		n = f.base[i].pass(x[:n])
	}
	return n
}

// Flush writes the outputs the end of the input still owes to the front of
// dst and returns how many: the last Delay() samples of the record, or all
// of a shorter one, as many as PushChunk or PushCounts held back. Each
// stage computes them with the batch operators' right border, its window
// clipped at its last input: a 3-sample stage appends the extremum of its
// two newest inputs, and a baseline stage passes right pads, whose outputs
// run on down the cascade before the next stage's pads. dst needs room for
// them. The filter must be Reset before its next record.
//
//rpbeat:allocfree
func (f *StreamECGFilter) Flush(dst []float64) int {
	// Noise suppression, in the chains the record went through: each chain
	// stage owes one sample, so the tails hold at most one sample per
	// stage.
	var a, b [len(f.oc)]float64
	k := 0
	if f.ocCounts[0].primed {
		var ac, bc [len(f.oc)]int32
		for i := range f.ocCounts {
			f.coCounts[i].flush(bc[:], k)
			k = f.ocCounts[i].flush(ac[:], k)
		}
		for i := range a[:k] {
			a[i], b[i] = ecgsyn.ToMillivolts(ac[i]), ecgsyn.ToMillivolts(bc[i])
		}
	} else {
		var ak, bk [len(f.oc)]int64
		for i := range f.oc {
			f.co[i].flush(bk[:], k)
			k = f.oc[i].flush(ak[:], k)
		}
		for i := range a[:k] {
			a[i], b[i] = keyFloat(ak[i]), keyFloat(bk[i])
		}
	}
	for i := range a[:k] {
		a[i] = 0.5 * (a[i] + b[i])
	}
	out := f.removeBaseline(dst, a[:k])
	// The cascade owes one output for each of its last min(n, len(ring))
	// inputs. They come out oldest first and belong to the delay line's
	// samples, oldest first.
	ring := f.sup
	at := max(0, f.base[0].n-len(ring)) % len(ring)
	var buf [Block]int64
	for s := range f.base {
		for p := f.base[s].right; p > 0; p -= Block {
			pads := buf[:min(p, Block)]
			for i := range pads {
				pads[i] = f.base[s].pad()
			}
			for _, key := range pads[:f.cascade(pads, s)] {
				dst[out] = ring[at] - keyFloat(key)
				out++
				if at++; at == len(ring) {
					at = 0
				}
			}
		}
	}
	return out
}

// Reset readies the filter for a new record, as NewStreamECGFilter built it.
//
//rpbeat:allocfree
func (f *StreamECGFilter) Reset() {
	for i := range f.oc {
		f.oc[i].primed, f.co[i].primed = false, false
		f.ocCounts[i].primed, f.coCounts[i].primed = false, false
	}
	for i := range f.base {
		f.base[i].reset()
	}
	f.supAt = 0
}

// Push consumes one raw sample and, once the cascade is primed, emits one
// filtered sample (aligned to input index n - Delay()). It is PushChunk
// over a one-sample chunk.
func (f *StreamECGFilter) Push(x float64) (float64, bool) {
	one := [1]float64{x}
	if f.PushChunk(one[:], one[:]) == 0 {
		return 0, false
	}
	return one[0], true
}

// StreamDWT is the streaming à trous transform: after Delay() inputs of
// warm-up, each input sample completes the detail samples W[0..levels-1][i]
// of one more index i, bit-identical to AtrousDWT(x, levels').W[j][i] for
// any levels' >= levels (deeper levels do not affect shallower ones), and
// Flush completes the rest.
//
// Each level keeps a power-of-two ring of its own input (the previous
// level's approximation), sized so that a block's aligned detail samples
// can be read back from it once the deepest level has caught up: no level
// buffers its detail output.
type StreamDWT struct {
	levels []dwtLevel
	delay  int
	n      int // input samples consumed

	out  []float64   // Push's result
	outs [][]float64 // Push's one-sample destinations, views of out
}

// dwtLevel is one à trous level: its output i (detail and next
// approximation) needs its input i+delay.
type dwtLevel struct {
	gap, half, delay int
	ring             []float64 // the level's input, indexed by position&mask
	n                int       // input samples consumed
}

// NewStreamDWT builds a streaming transform with the given number of detail
// levels (>= 1).
func NewStreamDWT(levels int) *StreamDWT {
	levels = max(levels, 1)
	d := &StreamDWT{
		levels: make([]dwtLevel, levels),
		out:    make([]float64, levels),
		outs:   make([][]float64, levels),
	}
	for j := range d.levels {
		gap := 1 << j
		d.levels[j] = dwtLevel{gap: gap, half: gap / 2, delay: gap/2 + 2*gap}
		d.delay += d.levels[j].delay
		d.outs[j] = d.out[j : j+1]
	}
	// Level j's ring must hold, at the end of a block, the input from which
	// the block's first aligned detail sample is read: its newest input is
	// the deeper levels' delays plus one block ahead of that sample. It
	// must also keep the first-sample prefill standing in for the inputs
	// before 0 until the level's first outputs have read them, and at Flush
	// every input from the first owed index's reads to the last input, less
	// than Delay() plus one gap back.
	ahead := d.delay
	for j := range d.levels {
		l := &d.levels[j]
		l.ring = make([]float64, nextPow2(max(ahead-l.half+Block, 4*l.gap+1, d.delay+l.gap+1)))
		ahead -= l.delay
	}
	return d
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Delay returns the total warm-up: detail index i for every level is
// available once input sample i+Delay() has been consumed.
func (d *StreamDWT) Delay() int { return d.delay }

// InputsFor returns how many more input samples complete the next k
// aligned detail indices.
func (d *StreamDWT) InputsFor(k int) int { return k + max(0, d.delay-d.n) }

// PushChunk consumes x and writes the detail samples it completes: the
// c-th index completed by this call goes to dst[j][c] for every level j
// (len(dst) == levels; a nil dst[j] skips level j). It returns how many
// indices x completed — one per input once Delay() inputs have been
// consumed, so each dst[j] needs room for len(x) samples at most.
//
//rpbeat:allocfree
func (d *StreamDWT) PushChunk(dst [][]float64, x []float64) int {
	last := len(d.levels) - 1
	done := 0
	for len(x) > 0 {
		m := min(len(x), Block)
		in := x[:m]
		x = x[m:]
		d.n += m
		// Each level but the deepest turns its input block into the next
		// level's, ping-ponging between two stack buffers; the deepest
		// only counts the indices its inputs complete.
		var buf [2][Block]float64
		k := 0
		for j := range d.levels {
			l := &d.levels[j]
			ring, mask, n, gap := l.ring, len(l.ring)-1, l.n, l.gap
			if n == 0 && len(in) > 0 {
				for i := range ring { // stands in for the inputs before 0
					ring[i] = in[0]
				}
			}
			next := &buf[j&1]
			k = 0
			for _, v := range in {
				ring[n&mask] = v
				n++
				if n <= l.delay {
					continue
				}
				if j < last {
					// AtrousDWTInto's lowpass at c = i+half, where c+2*gap
					// is the input just written.
					c := n - 1 - 2*gap
					next[k] = (ring[(c-gap)&mask] + 3*ring[c&mask] +
						3*ring[(c+gap)&mask] + ring[(c+2*gap)&mask]) / 8
				}
				k++
			}
			l.n = n
			in = next[:k]
		}
		// The deepest level's k outputs are the indices this block aligned;
		// read every level's detail at them back from its ring, with
		// AtrousDWTInto's highpass.
		end := d.levels[last].n - d.levels[last].delay
		for j, w := range dst {
			if w == nil {
				continue
			}
			l := &d.levels[j]
			ring, mask := l.ring, len(l.ring)-1
			c, out := end-k+l.half, w[done:done+k]
			for o := range out {
				out[o] = 2 * (ring[(c+o+l.gap)&mask] - ring[(c+o)&mask])
			}
		}
		done += k
	}
	return done
}

// Flush writes the detail samples the end of the input still owes, the
// c-th owed index to dst[j][c] for every level j (a nil dst[j] skips level
// j), and returns how many: the last Delay() indices of the record, or all
// of a shorter one, as many as PushChunk held back. Level by level, each
// computes its owed outputs with AtrousDWT's right border, the centre index
// and every read clamped to the level's last input, and its owed
// approximation completes the next level's input. The transform must be
// Reset before its next record.
//
//rpbeat:allocfree
func (d *StreamDWT) Flush(dst [][]float64) int {
	n, last := d.n, len(d.levels)-1
	from := max(0, d.levels[0].n-d.levels[0].delay) // first owed output
	for j := range d.levels[:last] {
		l, next := &d.levels[j], &d.levels[j+1]
		nextFrom := max(0, next.n-next.delay)
		mask := len(next.ring) - 1
		for i := from; i < n; i++ {
			c := min(i+l.half, n-1)
			next.ring[next.n&mask] = (l.at(c-l.gap, n) + 3*l.at(c, n) +
				3*l.at(c+l.gap, n) + l.at(c+2*l.gap, n)) / 8
			next.n++
		}
		from = nextFrom
	}
	for j, w := range dst {
		if w == nil {
			continue
		}
		l := &d.levels[j]
		for i := from; i < n; i++ {
			c := min(i+l.half, n-1)
			w[i-from] = 2 * (l.at(c+l.gap, n) - l.at(c, n))
		}
	}
	return n - from
}

// at reads the level's input i of n, clamped to the first and last.
func (l *dwtLevel) at(i, n int) float64 {
	return l.ring[min(max(i, 0), n-1)&(len(l.ring)-1)]
}

// Reset readies the transform for a new record, as NewStreamDWT built it.
//
//rpbeat:allocfree
func (d *StreamDWT) Reset() {
	d.n = 0
	for j := range d.levels {
		d.levels[j].n = 0
	}
}

// Push consumes one input sample. Once all levels have produced detail
// sample i it returns the slice [W0[i], W1[i], ...] and true. The returned
// slice is reused by the next call; copy it to retain. It is PushChunk over
// a one-sample chunk.
func (d *StreamDWT) Push(x float64) ([]float64, bool) {
	one := [1]float64{x}
	if d.PushChunk(d.outs, one[:]) == 0 {
		return nil, false
	}
	return d.out, true
}
