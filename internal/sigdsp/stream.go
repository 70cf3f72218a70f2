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

// tap3 is one NoiseElem-sample erosion or dilation stage of a stream.
// Output i is the extremum of inputs i-1, i and i+1, so the stage lags its
// input by one sample. It carries its two newest inputs between blocks, and
// its first input stands in for input -1, which reproduces the batch
// operator's border-shrunk window. Ties keep the newest sample, as
// slideExtremum's monotonic deque does, so equal values of opposite
// sign (±0) come out bit-identical too.
//
// The selects move bits: each output makes a branching extremum's two
// comparisons (the middle input against the newest, then the oldest
// against the winner), but with the Float64bits casts above the ifs each
// if compiles to a conditional move, so noisy neighbours, whose order a
// branch predictor guesses wrong about half the time, cost what a flat
// lead does (TestNoiseStagesDataIndependent). A cast inside an if keeps
// the jump, and the builtin float min and max, though branch-free, order
// -0 below +0 and would break the newest-wins ties.
type tap3 struct {
	older, newer   float64
	dilate, primed bool
}

// pass runs the stage in place over x and returns how many outputs it wrote
// to the front of x: one per input, less one for the stage's first input.
//
//rpbeat:allocfree
func (s *tap3) pass(x []float64) int {
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
			ab, bb, m := math.Float64bits(a), math.Float64bits(b), math.Float64bits(c)
			if b > c {
				m = bb
			}
			if a > math.Float64frombits(m) {
				m = ab
			}
			x[i] = math.Float64frombits(m)
			a, b = b, c
		}
	} else {
		for i, c := range in {
			ab, bb, m := math.Float64bits(a), math.Float64bits(b), math.Float64bits(c)
			if b < c {
				m = bb
			}
			if a < math.Float64frombits(m) {
				m = ab
			}
			x[i] = math.Float64frombits(m)
			a, b = b, c
		}
	}
	s.older, s.newer = a, b
	return len(in)
}

// flush passes the upstream tail x[:k] through the stage, then appends the
// output it still owes for its last input: the batch operator's window
// clipped there, the extremum of the two newest inputs (ties to the newer).
// x needs room for k+1 samples; flush returns how many it holds.
//
//rpbeat:allocfree
func (s *tap3) flush(x []float64, k int) int {
	k = s.pass(x[:k])
	if !s.primed {
		return k
	}
	m := s.newer
	if (s.dilate && s.older > m) || (!s.dilate && s.older < m) {
		m = s.older
	}
	x[k] = m
	return k + 1
}

// tap3Counts is tap3 over ADC counts, StreamECGFilter.PushCounts's noise
// stage. Equal counts are the same count, so no tie rule is needed, and
// the builtin integer min and max compile to conditional moves with no
// float↔bits moves around them (TestNoiseStagesDataIndependent).
type tap3Counts struct {
	older, newer   int32
	dilate, primed bool
}

// pass runs the stage in place over x and returns how many outputs it wrote
// to the front of x, as tap3.pass.
//
//rpbeat:allocfree
func (s *tap3Counts) pass(x []int32) int {
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

// flush passes the upstream tail x[:k] through the stage and appends the
// output it still owes, as tap3.flush.
//
//rpbeat:allocfree
func (s *tap3Counts) flush(x []int32, k int) int {
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

// wedge is one long erosion or dilation stage of a stream: Lemire's
// monotonic wedge over the trailing window of the last length inputs, O(1)
// amortized per sample. The output for the window ending at input i+right
// is output i, so with right = length-1-length/2 it is the batch operator's
// centered window (the trailing window over a stream prefix covers exactly
// the batch operator's border-shrunk window), and with right = 0 the plain
// trailing extremum. The wedge lives in power-of-two rings of values and
// positions, at most length entries, so a stage never allocates after
// construction.
type wedge struct {
	length, right int
	dilate        bool
	val           []float64 // wedge values, ring indexed by counter&mask
	pos           []uint32  // their input positions, mod 2^32
	head, tail    int       // the wedge occupies ring counters [head, tail)
	n             int       // inputs consumed
}

// newWedge returns the stage aligned with Erode (dilate false) or Dilate
// for a flat element of the given length.
func newWedge(length int, dilate bool) wedge {
	size := nextPow2(length)
	return wedge{
		length: length, right: length - 1 - length/2, dilate: dilate,
		val: make([]float64, size),
		pos: make([]uint32, size),
	}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// pass runs the stage in place over x and returns how many outputs it wrote
// to the front of x: one per input, less the first right inputs the stage
// ever sees. Ties keep the newest sample, as in tap3.
//
//rpbeat:allocfree
func (w *wedge) pass(x []float64) int {
	mask := len(w.val) - 1
	val, pos := w.val, w.pos
	length := uint32(w.length)
	head, tail, n, k := w.head, w.tail, w.n, 0
	for _, v := range x {
		// Expire the front once it leaves the window of input n. The wedge
		// is empty only before the first input, whose zeroed slot reads as
		// position 0, inside that window.
		if uint32(n)-pos[head&mask] >= length {
			head++
		}
		if w.dilate {
			for tail != head && v >= val[(tail-1)&mask] {
				tail--
			}
		} else {
			for tail != head && v <= val[(tail-1)&mask] {
				tail--
			}
		}
		val[tail&mask], pos[tail&mask] = v, uint32(n)
		tail++
		n++
		if n > w.right {
			x[k] = val[head&mask]
			k++
		}
	}
	w.head, w.tail, w.n = head, tail, n
	return k
}

// flush passes the upstream tail x[:k] through the stage, then appends the
// outputs it still owes, one for each of its last min(n, right) inputs: the
// batch operator's windows clipped at the last input, each the wedge front
// once the entries left of its window have expired. x needs room for
// k+min(n, right) samples; flush returns how many it holds.
//
//rpbeat:allocfree
func (w *wedge) flush(x []float64, k int) int {
	k = w.pass(x[:k])
	mask, left := len(w.val)-1, w.length-1-w.right
	for i := max(0, w.n-w.right); i < w.n; i++ {
		// An entry n-pos inputs back is in output i's window [i-left, n)
		// while n-pos <= n-i+left. The newest entry always is.
		for int(uint32(w.n)-w.pos[w.head&mask]) > w.n-i+left {
			w.head++
		}
		x[k] = w.val[w.head&mask]
		k++
	}
	return k
}

// reset empties the stage for a new input.
//
//rpbeat:allocfree
func (w *wedge) reset() {
	w.head, w.tail, w.n = 0, 0, 0
	w.pos[0] = 0 // the empty wedge's front reads as input 0 (see pass)
}
