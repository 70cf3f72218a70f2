package sigdsp

// Block-at-a-time streaming kernels for the front end, matching how a
// serving worker actually receives its ADC: a chunk of samples at a time.
// Each kernel keeps bounded state between blocks, runs in place over a
// block, and reports its group delay through the operator that owns it, so
// downstream stages can align their sample indices with the batch
// implementations.
//
// The batch functions in this package are the reference; every streaming
// operator is tested to produce bit-identical output against its batch
// counterpart, from sample 0, for any split of the input into chunks.

import "math"

// Block is the most samples a stream operator processes in one pass. Its
// scratch buffers are stack arrays of Block samples, so a longer chunk runs
// as consecutive blocks; a caller that keeps raw-input history for the
// outputs (internal/pipeline's raw ring) must cover one block of lead over
// the operators' delays.
const Block = 64

// tap3 is one NoiseElem-sample erosion or dilation stage of a stream, over
// ADC counts (PushCounts) or float order keys (PushChunk). Output i is the
// extremum of inputs i-1, i and i+1, so the stage lags its input by one
// sample. It carries its two newest inputs between blocks, and its first
// input stands in for input -1, which reproduces the batch operator's
// border-shrunk window. Equal inputs are one value, so the batch deque's
// newest-wins ties cannot show, and the builtin integer min and max compile
// to conditional moves: noisy neighbours, whose order a branch predictor
// guesses wrong about half the time, cost what a flat lead does
// (TestNoiseStagesDataIndependent).
type tap3[T int32 | int64] struct {
	older, newer   T
	dilate, primed bool
}

// pass runs the stage in place over x and returns how many outputs it wrote
// to the front of x: one per input, less one for the stage's first input.
//
//rpbeat:allocfree
func (s *tap3[T]) pass(x []T) int {
	if len(x) == 0 {
		return 0
	}
	in := x
	if !s.primed {
		s.older, s.newer, s.primed = x[0], x[0], true
		in = x[1:]
	}
	a, b := s.older, s.newer
	if s.dilate {
		for i, c := range in {
			x[i] = max(a, b, c)
			a, b = b, c
		}
	} else {
		for i, c := range in {
			x[i] = min(a, b, c)
			a, b = b, c
		}
	}
	s.older, s.newer = a, b
	return len(in)
}

// flush passes the upstream tail x[:k] through the stage, then appends the
// output it still owes for its last input: the batch operator's window
// clipped there, the extremum of the two newest inputs. x needs room for
// k+1 samples; flush returns how many it holds.
//
//rpbeat:allocfree
func (s *tap3[T]) flush(x []T, k int) int {
	k = s.pass(x[:k])
	if !s.primed {
		return k
	}
	if s.dilate {
		x[k] = max(s.older, s.newer)
	} else {
		x[k] = min(s.older, s.newer)
	}
	return k + 1
}

// orderKey maps a float64 to an int64 that orders as the floats compare,
// −0 one below +0, so the noise stages and the baseline wedges select with
// the builtin integer min and max, a CMP and CMOV. A non-negative float's
// bits already order as integers; flipping every bit but the sign of a
// negative one reverses the order of its magnitude. Equal keys are equal
// bits.
//
// The front end's float domain is finite, −0 read as +0: NaN has no place
// in the order, and ±Inf can meet in the noise average as Inf − Inf, NaN.
// Served input is int32 counts, and ecgsyn.ToMillivolts and wfdb (which
// rejects a gain that is not finite and above 0) give neither, so nothing
// on the hot path checks for them.
func orderKey(v float64) int64 {
	k := int64(math.Float64bits(v))
	return k ^ (k >> 63 & math.MaxInt64)
}

// keyFloat is the float64 whose order key is k: the same flip.
func keyFloat(k int64) float64 {
	return math.Float64frombits(uint64(k ^ (k >> 63 & math.MaxInt64)))
}

// keyFloor lies below every non-NaN float's key, the identity of max.
const keyFloor = math.MinInt64

// wedge is one long erosion or dilation stage of a stream, a running
// maximum of order keys over the trailing window of the last length
// inputs after van Herk and Gil-Werman: the inputs fall into blocks of
// length, the window ending at an input covers a suffix of the previous
// block and a prefix of the current one, and its output is the larger of
// that suffix's maximum, from one suffix pass per completed block, and the
// current block's running prefix maximum. That is three max per input
// whatever the data, with no branch to mispredict
// (TestBaselineCascadeDataIndependent). An erosion is the dilation of the
// flipped keys ^k, flipped back on the way out.
//
// The output for the window ending at input i+right is output i, so with
// right = length-1-length/2 it is the batch operator's centered window (the
// trailing window over a stream prefix covers exactly the batch operator's
// border-shrunk window), and with right = 0 the plain trailing extremum.
// At the record's end the stage owes its last right outputs, the batch
// windows clipped at the last input: a pass over right pad keys writes
// them, since a pad is keyFloor after the flip.
//
// Ties keep the newest sample, as in slideExtremum. Equal keys are equal
// bits, so the one tie that can show is ±0, which compare equal as floats
// but key one apart: a window whose extremum is a zero takes the newest
// zero the stage has seen, which lies in the window, since the window holds
// a zero and ends at the newest input. PushChunk reads −0 as +0, but the
// noise average of its input can still round to −0 (half of −2⁻¹⁰⁷⁴), so
// the baseline needs the rule all the same. The stage lives in two
// block buffers of length+1 keys, so it never allocates after
// construction.
type wedge struct {
	length, right int
	flip          int64   // 0 for a dilation, -1 (every bit) for an erosion
	cur, suf      []int64 // the current block's inputs, the previous block's suffix maxima; [length] is keyFloor in both
	pre           int64   // the current block's prefix maximum
	zero          int64   // the newest zero key seen, 0 (+0) or -1 (−0) after the flip
	at, n         int     // inputs in the current block and in all
}

// newWedge returns the stage aligned with Erode (dilate false) or Dilate
// for a flat element of the given length.
func newWedge(length int, dilate bool) wedge {
	w := wedge{
		length: length, right: length - 1 - length/2,
		cur: make([]int64, length+1),
		suf: make([]int64, length+1),
	}
	if !dilate {
		w.flip = -1
	}
	w.cur[length] = keyFloor
	w.reset()
	return w
}

// pad is the key that stands in for an input past the record's last.
func (w *wedge) pad() int64 { return keyFloor ^ w.flip }

// pass runs the stage in place over the keys x and returns how many
// outputs it wrote to the front of x: one per input, less the first right
// inputs the stage ever sees.
//
//rpbeat:allocfree
func (w *wedge) pass(x []int64) int {
	out := 0
	for in := 0; in < len(x); {
		// A run ends where the block or the warm-up does, so all its
		// outputs are kept or none.
		m := min(len(x)-in, w.length-w.at)
		keep := w.n >= w.right
		if !keep {
			m = min(m, w.right-w.n)
		}
		src := x[in : in+m]
		cur, suf := w.cur[w.at:][:len(src)], w.suf[w.at+1:][:len(src)]
		dst := x[out:][:len(src)] // out <= in: each input is read before its slot is written
		flip, pre, zero := w.flip, w.pre, w.zero
		for i, v := range src {
			v ^= flip
			cur[i] = v
			pre = max(pre, v)
			if uint64(v+1) <= 1 { // v is a zero key, -1 or 0
				zero = v
			}
			o := max(suf[i], pre)
			if uint64(o+1) <= 1 {
				o = zero
			}
			dst[i] = o ^ flip
		}
		w.pre, w.zero = pre, zero
		w.at += m
		w.n += m
		in += m
		if keep {
			out += m
		}
		if w.at == w.length {
			// The block is complete: its suffix maxima replace its inputs,
			// and it becomes the previous block.
			blk, s := w.cur[:w.length], int64(keyFloor)
			for i := len(blk) - 1; i >= 0; i-- {
				s = max(s, blk[i])
				blk[i] = s
			}
			w.cur, w.suf = w.suf, w.cur
			w.at, w.pre = 0, keyFloor
		}
	}
	return out
}

// reset empties the stage for a new input: no block before the first
// holds a key.
//
//rpbeat:allocfree
func (w *wedge) reset() {
	for i := range w.suf {
		w.suf[i] = keyFloor
	}
	w.at, w.n, w.pre = 0, 0, keyFloor
}
