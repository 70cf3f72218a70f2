package sigdsp

// Streaming (sample-by-sample) versions of the front-end operators, matching
// how the node actually consumes its ADC: bounded memory, O(1) amortized
// work per sample, and an explicitly reported group delay so downstream
// stages can align their sample indices with the batch implementations.
//
// The batch functions in this package are the reference; every streaming
// operator is tested to produce bit-identical output (modulo the documented
// warm-up region) against its batch counterpart.

// StreamExtremum is a running windowed min or max over the last `length`
// samples (Lemire's monotonic-wedge algorithm): O(1) amortized per sample
// with at most `length` stored indices. The wedge lives in a fixed-capacity
// ring deque, so steady-state Push never allocates — the property the whole
// pipeline's zero-allocation hot path rests on (a plain slice deque would
// shed front capacity at every pop and reallocate on append).
type StreamExtremum struct {
	length  int
	wantMax bool
	buf     []float64 // ring buffer of the last `length` samples
	idx     []int     // ring deque of absolute indices, capacity length+1
	head    int       // deque front position in idx
	count   int       // deque occupancy
	n       int       // samples consumed
}

// NewStreamMax returns a running maximum over `length` samples.
func NewStreamMax(length int) *StreamExtremum { return newStreamExtremum(length, true) }

// NewStreamMin returns a running minimum over `length` samples.
func NewStreamMin(length int) *StreamExtremum { return newStreamExtremum(length, false) }

func newStreamExtremum(length int, wantMax bool) *StreamExtremum {
	if length < 1 {
		length = 1
	}
	return &StreamExtremum{
		length:  length,
		wantMax: wantMax,
		buf:     make([]float64, length),
		idx:     make([]int, length+1),
	}
}

// Push consumes one sample and returns the extremum of the trailing window
// (shorter during warm-up).
func (s *StreamExtremum) Push(x float64) float64 {
	s.buf[s.n%s.length] = x
	// Pop dominated indices off the back of the wedge.
	for s.count > 0 {
		back := s.buf[s.idx[(s.head+s.count-1)%len(s.idx)]%s.length]
		if s.wantMax {
			if x < back {
				break
			}
		} else if x > back {
			break
		}
		s.count--
	}
	s.idx[(s.head+s.count)%len(s.idx)] = s.n
	s.count++
	// Expire the front once it leaves the window.
	if s.idx[s.head] <= s.n-s.length {
		s.head = (s.head + 1) % len(s.idx)
		s.count--
	}
	s.n++
	return s.buf[s.idx[s.head]%s.length]
}

// StreamMorph runs a centered erosion or dilation as a stream: output sample
// i (in input coordinates) becomes available after Delay() further input
// samples have arrived.
type StreamMorph struct {
	ex    *StreamExtremum
	right int // trailing window must extend this far past the center
	n     int
}

// NewStreamErode returns a streaming erosion with a flat element of the
// given length, aligned with Erode.
func NewStreamErode(length int) *StreamMorph {
	if length < 1 {
		length = 1
	}
	return &StreamMorph{ex: newStreamExtremum(length, false), right: length - 1 - length/2}
}

// NewStreamDilate returns a streaming dilation aligned with Dilate.
func NewStreamDilate(length int) *StreamMorph {
	if length < 1 {
		length = 1
	}
	return &StreamMorph{ex: newStreamExtremum(length, true), right: length - 1 - length/2}
}

// Delay returns how many input samples arrive before output sample 0.
func (m *StreamMorph) Delay() int { return m.right }

// Push consumes one sample. It returns the next output sample and true once
// the pipeline has filled (after Delay() samples), or 0 and false before.
// Note the border semantics differ from the batch operator only in the first
// Delay() outputs (the batch version shrinks its window at the left border;
// the stream has no access to "future" samples and therefore emits the
// trailing-window result there).
func (m *StreamMorph) Push(x float64) (float64, bool) {
	v := m.ex.Push(x)
	m.n++
	if m.n <= m.right {
		return 0, false
	}
	return v, true
}
