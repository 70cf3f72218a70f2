// Package sigdsp implements the signal-processing substrate used by the
// WBSN pipeline of Braojos et al. (DATE'13): mathematical morphology on 1-D
// signals (used for ECG filtering, per Rincon et al., IEEE TITB 2011), the
// à trous dyadic wavelet transform (used for R-peak detection), and window
// and downsampling utilities.
//
// All operators work on float64 slices in place-independent fashion (inputs
// are never modified) and have integer counterparts where the embedded
// pipeline needs them.
package sigdsp

// Erode computes the morphological erosion of x with a flat structuring
// element of the given length (a sliding-window minimum centered on each
// sample; even lengths extend one sample further to the left). Signal borders
// are handled by shrinking the window. The implementation is Lemire's
// monotonic-deque sliding extremum: O(n) independent of the element length.
func Erode(x []float64, length int) []float64 {
	return slideExtremum(x, length, false)
}

// Dilate computes the morphological dilation of x with a flat structuring
// element of the given length (sliding-window maximum).
func Dilate(x []float64, length int) []float64 {
	return slideExtremum(x, length, true)
}

// slideExtremum computes a centered sliding max (wantMax) or min over a
// window of the given length using monotonic-deque streaming: amortized O(1)
// per sample regardless of window length.
func slideExtremum(x []float64, length int, wantMax bool) []float64 {
	out := make([]float64, len(x))
	slideExtremumInto(out, x, length, wantMax, nil)
	return out
}

// slideExtremumInto is slideExtremum into a caller-provided slice (len(out)
// must equal len(x); out must not alias x). deque is an optional reusable
// index buffer; the possibly-grown buffer is returned for the caller to keep
// for the next call, so repeated invocations allocate nothing.
//
//rpbeat:allocfree
func slideExtremumInto(out, x []float64, length int, wantMax bool, deque []int) []int {
	n := len(x)
	if n == 0 {
		return deque
	}
	if length < 1 {
		length = 1
	}
	if length > 2*n {
		length = 2 * n
	}
	// Window covering sample i: [i-left, i+right], clipped to the signal.
	left := length / 2
	right := length - 1 - left

	// Monotonic deque of indices into x: front holds the window extremum.
	deque = deque[:0]
	head := 0 // logical front of the deque within the slice
	next := 0 // next sample index to enter the deque
	for i := 0; i < n; i++ {
		hi := i + right
		if hi >= n {
			hi = n - 1
		}
		for ; next <= hi; next++ {
			v := x[next]
			if wantMax {
				for len(deque) > head && v >= x[deque[len(deque)-1]] {
					deque = deque[:len(deque)-1]
				}
			} else {
				for len(deque) > head && v <= x[deque[len(deque)-1]] {
					deque = deque[:len(deque)-1]
				}
			}
			deque = append(deque, next)
		}
		// Drop elements that fell out on the left.
		for head < len(deque) && deque[head] < i-left {
			head++
		}
		out[i] = x[deque[head]]
	}
	return deque
}

// Open computes morphological opening: erosion followed by dilation.
// Opening removes positive peaks narrower than the structuring element.
func Open(x []float64, length int) []float64 {
	return Dilate(Erode(x, length), length)
}

// Close computes morphological closing: dilation followed by erosion.
// Closing removes negative pits narrower than the structuring element.
func Close(x []float64, length int) []float64 {
	return Erode(Dilate(x, length), length)
}

// The WBSN front end's structuring elements. Baseline estimation is the
// two-stage estimator used on the node: opening with an element longer than
// the QRS complex to suppress beats, then closing with a 1.5x longer element
// to bridge the T wave, both expressed in seconds and converted with the
// sampling frequency. Noise suppression uses a fixed small element.
const (
	openSec   = 0.2 // opening element: 73 samples at 360 Hz
	closeSec  = 0.3 // closing element: 109 samples at 360 Hz
	NoiseElem = 3   // noise-suppression element, samples
)

// BaselineConfig carries the sampling frequency that converts the front
// end's structuring elements from seconds to samples.
type BaselineConfig struct {
	Fs float64 // sampling frequency in Hz
}

// DefaultBaselineConfig returns the WBSN filter configuration for the given
// sampling frequency.
func DefaultBaselineConfig(fs float64) BaselineConfig {
	return BaselineConfig{Fs: fs}
}

// OpenLen is the baseline opening element in samples.
func (c BaselineConfig) OpenLen() int { return oddAtLeast(int(openSec*c.Fs), 3) }

// CloseLen is the baseline closing element in samples.
func (c BaselineConfig) CloseLen() int { return oddAtLeast(int(closeSec*c.Fs), 5) }

func oddAtLeast(n, min int) int {
	if n < min {
		n = min
	}
	if n%2 == 0 {
		n++
	}
	return n
}

// Baseline estimates the baseline wander of x by opening-then-closing with
// the configured structuring elements.
func Baseline(x []float64, cfg BaselineConfig) []float64 {
	return Close(Open(x, cfg.OpenLen()), cfg.CloseLen())
}

// RemoveBaseline returns x minus its estimated baseline. This is the first
// filtering stage of the WBSN front end.
//
//rpvet:allow deadcode -- reference: TestFilterECGIntoMatchesFilterECG composes the front end from it
func RemoveBaseline(x []float64, cfg BaselineConfig) []float64 {
	b := Baseline(x, cfg)
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - b[i]
	}
	return out
}

// SuppressNoise attenuates high-frequency artifacts by averaging the
// opening-closing and closing-opening of x with the NoiseElem-sample
// structuring element (the "MF pair" smoother used in morphological ECG
// filtering), which does not depend on the sampling frequency.
//
//rpvet:allow deadcode -- reference: TestFilterECGIntoMatchesFilterECG composes the front end from it
func SuppressNoise(x []float64, _ BaselineConfig) []float64 {
	oc := Close(Open(x, NoiseElem), NoiseElem)
	co := Open(Close(x, NoiseElem), NoiseElem)
	out := make([]float64, len(x))
	for i := range x {
		out[i] = 0.5 * (oc[i] + co[i])
	}
	return out
}

// FilterECG applies the complete morphological front end: noise suppression
// followed by baseline removal. It is the software equivalent of the
// "filtering" stage of sub-system (1) in the paper.
//
// Each call allocates fresh output and working buffers; request loops should
// hold a FilterScratch and call FilterECGInto instead.
func FilterECG(x []float64, cfg BaselineConfig) []float64 {
	return FilterECGInto(nil, x, cfg, new(FilterScratch))
}

// FilterScratch holds the working buffers of FilterECGInto: three
// signal-length ping-pong buffers for the morphological cascades and the
// shared monotonic-deque index buffer. A zero value is ready to use; buffers
// grow to the largest signal seen and are reused afterwards. Not safe for
// concurrent use.
type FilterScratch struct {
	a, b, c []float64
	deque   []int
}

func growFloatBuf(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// FilterECGInto is FilterECG running through the caller's scratch buffers:
// the thirteen sliding-extremum passes of the front end ping-pong between
// three reused buffers instead of each allocating their own, so a warm
// scratch makes the whole filter allocation-free. dst is grown as needed and
// returned (it must not alias x); the result is bit-identical to
// FilterECG(x, cfg).
//
//rpbeat:allocfree
func FilterECGInto(dst, x []float64, cfg BaselineConfig, s *FilterScratch) []float64 {
	n := len(x)
	dst = growFloatBuf(dst, n)
	s.a = growFloatBuf(s.a, n)
	s.b = growFloatBuf(s.b, n)
	s.c = growFloatBuf(s.c, n)

	// SuppressNoise: oc = Close(Open(x,k),k), co = Open(Close(x,k),k),
	// averaged. Same operator order (and therefore the same floats) as the
	// allocating composition.
	const k = NoiseElem
	s.deque = slideExtremumInto(s.a, x, k, false, s.deque) // erode
	s.deque = slideExtremumInto(s.b, s.a, k, true, s.deque)
	s.deque = slideExtremumInto(s.a, s.b, k, true, s.deque)
	s.deque = slideExtremumInto(s.b, s.a, k, false, s.deque) // oc in b
	s.deque = slideExtremumInto(s.a, x, k, true, s.deque)    // dilate
	s.deque = slideExtremumInto(s.c, s.a, k, false, s.deque)
	s.deque = slideExtremumInto(s.a, s.c, k, false, s.deque)
	s.deque = slideExtremumInto(s.c, s.a, k, true, s.deque) // co in c
	for i := range s.a {
		s.a[i] = 0.5 * (s.b[i] + s.c[i]) // suppressed signal in a
	}

	// RemoveBaseline: baseline = Close(Open(sup, openLen), closeLen).
	ol, cl := cfg.OpenLen(), cfg.CloseLen()
	s.deque = slideExtremumInto(s.b, s.a, ol, false, s.deque)
	s.deque = slideExtremumInto(s.c, s.b, ol, true, s.deque)
	s.deque = slideExtremumInto(s.b, s.c, cl, true, s.deque)
	s.deque = slideExtremumInto(s.c, s.b, cl, false, s.deque) // baseline in c
	for i := range dst {
		dst[i] = s.a[i] - s.c[i]
	}
	return dst
}

// MMD computes the multiscale morphological derivative of x at the given
// scale s (in samples): MMD(f)(t) = ((f⊕g_s)(t) - 2 f(t) + (f⊖g_s)(t)) / s,
// where g_s is a flat structuring element spanning [t-s, t+s]. Positive peaks
// of the MMD mark concave corners (wave onsets/ends), strong negative values
// mark convex peaks. This is the transform driving the delineation stage.
func MMD(x []float64, s int) []float64 {
	if s < 1 {
		s = 1
	}
	length := 2*s + 1
	dil := Dilate(x, length)
	ero := Erode(x, length)
	out := make([]float64, len(x))
	inv := 1.0 / float64(s)
	for i := range x {
		out[i] = (dil[i] - 2*x[i] + ero[i]) * inv
	}
	return out
}
