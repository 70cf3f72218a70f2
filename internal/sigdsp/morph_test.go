package sigdsp

import (
	"math"
	"testing"
	"testing/quick"

	"rpbeat/internal/rng"
)

// naiveExtremum is the O(n*k) reference implementation used to validate the
// deque-based sliding extremum.
func naiveExtremum(x []float64, length int, wantMax bool) []float64 {
	n := len(x)
	out := make([]float64, n)
	if length < 1 {
		length = 1
	}
	left := length / 2
	right := length - 1 - left
	for i := 0; i < n; i++ {
		lo, hi := i-left, i+right
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		best := x[lo]
		for j := lo + 1; j <= hi; j++ {
			if wantMax && x[j] > best || !wantMax && x[j] < best {
				best = x[j]
			}
		}
		out[i] = best
	}
	return out
}

func randomSignal(r *rng.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Norm()
	}
	return x
}

func TestErodeDilateMatchNaive(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 7, 64, 257} {
		for _, k := range []int{1, 2, 3, 5, 9, 31, 200} {
			x := randomSignal(r, n)
			for _, wantMax := range []bool{false, true} {
				got := slideExtremum(x, k, wantMax)
				want := naiveExtremum(x, k, wantMax)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d k=%d max=%v: sample %d: got %v want %v",
							n, k, wantMax, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestErosionBelowDilationAbove(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x := randomSignal(r, 100)
		e := Erode(x, 7)
		d := Dilate(x, 7)
		for i := range x {
			if e[i] > x[i] || d[i] < x[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOpeningAntiExtensiveClosingExtensive(t *testing.T) {
	r := rng.New(2)
	x := randomSignal(r, 200)
	o := Open(x, 9)
	c := Close(x, 9)
	for i := range x {
		if o[i] > x[i]+1e-12 {
			t.Fatalf("opening exceeded signal at %d: %v > %v", i, o[i], x[i])
		}
		if c[i] < x[i]-1e-12 {
			t.Fatalf("closing fell below signal at %d: %v < %v", i, c[i], x[i])
		}
	}
}

func TestOpeningIdempotent(t *testing.T) {
	r := rng.New(3)
	x := randomSignal(r, 150)
	once := Open(x, 7)
	twice := Open(once, 7)
	for i := range once {
		if math.Abs(once[i]-twice[i]) > 1e-12 {
			t.Fatalf("opening not idempotent at %d: %v vs %v", i, once[i], twice[i])
		}
	}
}

func TestClosingIdempotent(t *testing.T) {
	r := rng.New(4)
	x := randomSignal(r, 150)
	once := Close(x, 7)
	twice := Close(once, 7)
	for i := range once {
		if math.Abs(once[i]-twice[i]) > 1e-12 {
			t.Fatalf("closing not idempotent at %d: %v vs %v", i, once[i], twice[i])
		}
	}
}

func TestOpeningRemovesNarrowSpike(t *testing.T) {
	x := make([]float64, 50)
	x[25] = 5 // single-sample spike
	o := Open(x, 5)
	if o[25] != 0 {
		t.Fatalf("opening kept a 1-sample spike: %v", o[25])
	}
	c := Close(x, 5)
	if c[25] != 5 {
		t.Fatalf("closing should keep positive spike: %v", c[25])
	}
}

func TestClosingFillsNarrowPit(t *testing.T) {
	x := make([]float64, 50)
	x[25] = -5
	c := Close(x, 5)
	if c[25] != 0 {
		t.Fatalf("closing kept a 1-sample pit: %v", c[25])
	}
}

func TestBaselineTracksSlowDrift(t *testing.T) {
	// Slow sine drift plus narrow spikes: baseline estimate should follow the
	// drift and ignore the spikes.
	fs := 360.0
	n := 3600
	x := make([]float64, n)
	for i := range x {
		tsec := float64(i) / fs
		x[i] = 0.5 * math.Sin(2*math.Pi*0.3*tsec)
	}
	for i := 180; i < n; i += 360 {
		x[i] += 3 // fake QRS spikes, 1 sample wide
	}
	b := Baseline(x, DefaultBaselineConfig(fs))
	var maxErr float64
	for i := n / 4; i < 3*n/4; i++ { // skip borders
		tsec := float64(i) / fs
		drift := 0.5 * math.Sin(2*math.Pi*0.3*tsec)
		if e := math.Abs(b[i] - drift); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.15 {
		t.Fatalf("baseline estimate error %.3f too large", maxErr)
	}
}

// mean returns the arithmetic mean of x.
func mean(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// rms returns the root-mean-square of x.
func rms(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

func TestRemoveBaselineZeroCentersOutput(t *testing.T) {
	fs := 360.0
	n := 3600
	x := make([]float64, n)
	for i := range x {
		tsec := float64(i) / fs
		x[i] = 2.0 + 0.8*math.Sin(2*math.Pi*0.2*tsec) // offset + wander
	}
	y := RemoveBaseline(x, DefaultBaselineConfig(fs))
	m := mean(y[n/4 : 3*n/4])
	if math.Abs(m) > 0.1 {
		t.Fatalf("baseline-removed mean %.3f, want ~0", m)
	}
}

func TestSuppressNoiseReducesRMSOfWhiteNoise(t *testing.T) {
	r := rng.New(5)
	n := 2000
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.1 * r.Norm()
	}
	y := SuppressNoise(x, DefaultBaselineConfig(360))
	if rms(y) >= rms(x) {
		t.Fatalf("noise suppression did not reduce RMS: %.4f >= %.4f", rms(y), rms(x))
	}
}

func TestMMDPositiveAtCorners(t *testing.T) {
	// A V-shaped valley has a concave corner at the bottom: MMD > 0 there.
	n := 101
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Abs(float64(i - 50))
	}
	m := MMD(x, 5)
	if m[50] <= 0 {
		t.Fatalf("MMD at valley bottom = %v, want > 0", m[50])
	}
	// An inverted V (peak) is convex at the top: MMD < 0.
	for i := range x {
		x[i] = -math.Abs(float64(i - 50))
	}
	m = MMD(x, 5)
	if m[50] >= 0 {
		t.Fatalf("MMD at peak = %v, want < 0", m[50])
	}
}

func TestMMDZeroOnLinearRamp(t *testing.T) {
	n := 100
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.5 * float64(i)
	}
	m := MMD(x, 4)
	for i := 10; i < n-10; i++ {
		if math.Abs(m[i]) > 1e-9 {
			t.Fatalf("MMD on ramp at %d = %v, want 0", i, m[i])
		}
	}
}

func TestFilterECGPreservesQRSAmplitude(t *testing.T) {
	// A synthetic spike train on top of drift: after filtering, spikes should
	// retain most of their amplitude while drift disappears.
	fs := 360.0
	n := 7200
	x := make([]float64, n)
	for i := range x {
		tsec := float64(i) / fs
		x[i] = 0.7 * math.Sin(2*math.Pi*0.15*tsec)
	}
	// Triangular "QRS" of ~80 ms width, amplitude 1.
	addQRS := func(center int) {
		w := 14
		for d := -w; d <= w; d++ {
			if center+d >= 0 && center+d < n {
				x[center+d] += 1 - math.Abs(float64(d))/float64(w+1)
			}
		}
	}
	for c := 200; c < n-200; c += 300 {
		addQRS(c)
	}
	y := FilterECG(x, DefaultBaselineConfig(fs))
	// Check amplitude at one mid-signal QRS.
	c := 3500
	// nearest multiple of 300 offset by 200
	c = 200 + ((c-200)/300)*300
	if y[c] < 0.6 {
		t.Fatalf("QRS amplitude after filtering = %.3f, want > 0.6", y[c])
	}
	// Check drift removal between beats.
	if math.Abs(y[c+150]) > 0.2 {
		t.Fatalf("inter-beat residual %.3f, want ~0", y[c+150])
	}
}

func BenchmarkErode(b *testing.B) {
	r := rng.New(1)
	x := randomSignal(r, 360*30) // 30 s of 360 Hz ECG
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Erode(x, 73)
	}
}

func BenchmarkFilterECG(b *testing.B) {
	r := rng.New(1)
	x := randomSignal(r, 360*30)
	cfg := DefaultBaselineConfig(360)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FilterECG(x, cfg)
	}
}
