package sigdsp

// Dyadic à trous wavelet transform with the quadratic-spline wavelet of
// Mallat & Zhong, the standard choice for QRS detection (Martinez et al.;
// Rincon et al., IEEE TITB 2011, used on the IcyHeart node). The transform
// produces detail signals W[1..K] at scales 2^1..2^K. QRS complexes appear
// as maximum-minimum pairs of |W| across adjacent scales, with the R peak at
// the zero crossing in between.
//
// Filters (non-normalized integer-friendly form):
//
//	lowpass  h = (1/8)[1 3 3 1]
//	highpass g = 2[1 -1]
//
// At scale j the filters are upsampled by inserting 2^(j-1)-1 zeros between
// taps ("à trous"/with holes), so no decimation occurs and every scale stays
// sample-aligned with the input, which is what allows zero-crossing peak
// localization directly in input coordinates.

// DWT holds the detail signals of a dyadic à trous decomposition.
type DWT struct {
	// W[j] is the detail signal at scale 2^(j+1); len(W) == levels.
	W [][]float64
	// A is the final approximation (lowpass residue).
	A []float64

	// prev is the level-recursion ping-pong buffer, kept so AtrousDWTInto
	// can recompute the transform without reallocating it.
	prev []float64
}

// filter delay compensation: the causal convolution with the centered
// quadratic-spline filters introduces a known group delay per scale; the
// implementation below uses symmetric (centered) indexing so that wavelet
// extrema align with the generating signal features.

// AtrousDWT computes `levels` detail scales of x. Border samples are handled
// by edge replication. Typical use for 360 Hz ECG is levels = 4.
//
//rpvet:allow deadcode -- reference: TestStreamDWTMatchesAtrousDWT and FuzzFrontEndChunks compare the streaming transform against it
func AtrousDWT(x []float64, levels int) DWT {
	var d DWT
	AtrousDWTInto(&d, x, levels)
	return d
}

// AtrousDWTInto recomputes the transform into d, reusing d's detail,
// approximation and recursion buffers when they are large enough — repeated
// transforms over same-length signals allocate nothing. The result is
// bit-identical to AtrousDWT(x, levels).
func AtrousDWTInto(d *DWT, x []float64, levels int) {
	n := len(x)
	if cap(d.W) >= levels {
		d.W = d.W[:levels]
	} else {
		w := make([][]float64, levels)
		copy(w, d.W)
		d.W = w
	}
	for j := range d.W {
		d.W[j] = growFloatBuf(d.W[j], n)
	}
	d.A = growFloatBuf(d.A, n)
	d.prev = growFloatBuf(d.prev, n)

	at := func(s []float64, i int) float64 {
		if i < 0 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i]
	}

	// The recursion ping-pongs between d.prev and d.A; after `levels`
	// iterations the final approximation lands in one of the two and is
	// copied into d.A if needed.
	approx, next := d.prev, d.A
	copy(approx, x)
	for j := 0; j < levels; j++ {
		gap := 1 << j // hole spacing at this level
		half := gap / 2
		w := d.W[j]
		for i := 0; i < n; i++ {
			// The filters are evaluated at the recentered index directly
			// (the separate shift pass of the textbook formulation, fused):
			//
			// Highpass g = 2[1 -1]: forward difference over one hole
			// spacing; it estimates the derivative at c+gap/2, so reading
			// at c = min(i+half, n-1) aligns zero crossings with peaks.
			//
			// Lowpass h = (1/8)[1 3 3 1]: the 4-tap support spans offsets
			// {-gap, 0, +gap, +2gap}, putting its center of mass at +gap/2;
			// the same recentering keeps the drift from compounding across
			// levels (coarse-scale detections would shift by tens of
			// samples otherwise).
			c := minInt(i+half, n-1)
			w[i] = 2 * (at(approx, c+gap) - at(approx, c))
			next[i] = (at(approx, c-gap) + 3*at(approx, c) +
				3*at(approx, c+gap) + at(approx, c+2*gap)) / 8
		}
		approx, next = next, approx
	}
	if levels%2 == 0 { // final approximation ended up in d.prev
		copy(d.A, d.prev)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// DownsampleInt returns every factor-th sample of x starting at offset 0:
// the 4x rate reduction (360 Hz -> 90 Hz) the embedded classifier uses to
// shrink the projection matrix.
func DownsampleInt(x []int32, factor int) []int32 {
	if factor <= 1 {
		out := make([]int32, len(x))
		copy(out, x)
		return out
	}
	out := make([]int32, (len(x)+factor-1)/factor)
	DownsampleIntInto(out, x, factor)
	return out
}

// DownsampleIntInto is DownsampleInt into a caller-provided slice of length
// ceil(len(x)/factor) (len(x) for factor <= 1), for the allocation-free
// per-beat path.
//
//rpbeat:allocfree
func DownsampleIntInto(dst []int32, x []int32, factor int) {
	if factor <= 1 {
		if len(dst) != len(x) {
			panic("sigdsp: DownsampleIntInto length mismatch")
		}
		copy(dst, x)
		return
	}
	if len(dst) != (len(x)+factor-1)/factor {
		panic("sigdsp: DownsampleIntInto length mismatch")
	}
	for i, k := 0, 0; k < len(x); i, k = i+1, k+factor {
		dst[i] = x[k]
	}
}

// WindowInt extracts the samples [center-before, center+after) from x,
// replicating edge samples when the window exceeds the signal. The paper's
// beat window is before = after = 100 samples at 360 Hz.
func WindowInt(x []int32, center, before, after int) []int32 {
	out := make([]int32, before+after)
	WindowIntInto(out, x, center, before)
	return out
}

// WindowIntInto is WindowInt into a caller-provided slice whose length sets
// the window size (before + after), for the allocation-free per-beat path.
//
//rpbeat:allocfree
func WindowIntInto(dst []int32, x []int32, center, before int) {
	n := len(x)
	for i := range dst {
		j := center - before + i
		if j < 0 {
			j = 0
		}
		if j >= n {
			j = n - 1
		}
		if n == 0 {
			dst[i] = 0
			continue
		}
		dst[i] = x[j]
	}
}
