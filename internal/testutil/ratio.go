package testutil

import (
	"slices"
	"time"
)

// ratioRun is how long one timed run of either operation lasts, at least:
// long enough that the clock and the loop around the calls vanish, short
// enough that a pair of runs sees one host speed.
const ratioRun = 20 * time.Millisecond

// MedianRatio is the repo's same-host ratio-floor harness: it times a and b
// in interleaved pairs and returns the median, over the pairs, of a's time
// per call divided by b's, with the median ns per call of each. op(n) must
// make n calls of the measured operation. The two runs of a pair are
// adjacent and their order alternates from pair to pair, so a change in
// host speed moves both halves of most pairs alike, and the median drops
// the pairs it splits. Timing one operation to the end before starting the
// other would put any such change straight into the ratio.
//
//rpvet:allow deadcode -- test harness: TestBitembKernelSpeedupFloor and TestFrontendBatchParity
func MedianRatio(pairs int, a, b func(n int)) (ratio, aNs, bNs float64) {
	na, nb := callsPerRun(a), callsPerRun(b)
	ratios := make([]float64, pairs)
	as := make([]float64, pairs)
	bs := make([]float64, pairs)
	for i := range ratios {
		if i%2 == 0 {
			as[i] = nsPerCall(a, na)
			bs[i] = nsPerCall(b, nb)
		} else {
			bs[i] = nsPerCall(b, nb)
			as[i] = nsPerCall(a, na)
		}
		ratios[i] = as[i] / bs[i]
	}
	return median(ratios), median(as), median(bs)
}

// callsPerRun doubles the call count until one run of op lasts ratioRun.
func callsPerRun(op func(n int)) int {
	n := 1
	for {
		start := time.Now()
		op(n)
		if time.Since(start) >= ratioRun {
			return n
		}
		n *= 2
	}
}

func nsPerCall(op func(n int), n int) float64 {
	start := time.Now()
	op(n)
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}
