package sigdsp

import (
	"math"
	"testing"

	"rpbeat/internal/rng"
)

func TestAtrousDWTShape(t *testing.T) {
	x := make([]float64, 500)
	d := AtrousDWT(x, 4)
	if len(d.W) != 4 {
		t.Fatalf("levels = %d, want 4", len(d.W))
	}
	for j, w := range d.W {
		if len(w) != len(x) {
			t.Fatalf("scale %d has %d samples, want %d (à trous = undecimated)", j, len(w), len(x))
		}
	}
	if len(d.A) != len(x) {
		t.Fatalf("approximation has %d samples, want %d", len(d.A), len(x))
	}
}

func TestAtrousDWTZeroOnConstant(t *testing.T) {
	x := make([]float64, 300)
	for i := range x {
		x[i] = 3.7
	}
	d := AtrousDWT(x, 4)
	for j, w := range d.W {
		for i, v := range w {
			if math.Abs(v) > 1e-12 {
				t.Fatalf("scale %d sample %d = %v on constant input", j, i, v)
			}
		}
	}
	for i, v := range d.A {
		if math.Abs(v-3.7) > 1e-9 {
			t.Fatalf("approximation sample %d = %v, want 3.7", i, v)
		}
	}
}

func TestAtrousDWTStepResponseSign(t *testing.T) {
	// A rising step produces positive detail response around the edge.
	n := 200
	x := make([]float64, n)
	for i := n / 2; i < n; i++ {
		x[i] = 1
	}
	d := AtrousDWT(x, 3)
	for j := range d.W {
		var peak float64
		for _, v := range d.W[j][n/2-16 : n/2+16] {
			if v > peak {
				peak = v
			}
		}
		if peak <= 0 {
			t.Fatalf("scale %d: no positive response to rising edge", j)
		}
	}
}

func TestAtrousDWTZeroCrossingAtPeak(t *testing.T) {
	// A symmetric bump must generate a +/- modulus maxima pair with a zero
	// crossing near the bump apex on the first scales.
	n := 400
	center := 200
	x := make([]float64, n)
	for i := range x {
		d := float64(i - center)
		x[i] = math.Exp(-d * d / (2 * 16))
	}
	d := AtrousDWT(x, 3)
	for j := 0; j < 2; j++ {
		w := d.W[j]
		// find max and min in a window around the bump
		maxI, minI := center-30, center-30
		for i := center - 30; i <= center+30; i++ {
			if w[i] > w[maxI] {
				maxI = i
			}
			if w[i] < w[minI] {
				minI = i
			}
		}
		if !(maxI < minI) {
			t.Fatalf("scale %d: expected max before min around a positive bump (max@%d min@%d)", j, maxI, minI)
		}
		// zero crossing between them
		zc := -1
		for i := maxI; i < minI; i++ {
			if w[i] >= 0 && w[i+1] < 0 {
				zc = i
				break
			}
		}
		if zc == -1 {
			t.Fatalf("scale %d: no zero crossing between modulus maxima", j)
		}
		if abs := int(math.Abs(float64(zc - center))); abs > 4 {
			t.Fatalf("scale %d: zero crossing at %d, want within 4 samples of %d", j, zc, center)
		}
	}
}

func TestDownsample(t *testing.T) {
	x := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	got := DownsampleInt(x, 4)
	want := []int32{0, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
	// factor 1 copies
	c := DownsampleInt(x, 1)
	c[0] = 99
	if x[0] == 99 {
		t.Fatal("DownsampleInt(x,1) aliased its input")
	}
}

func TestDownsampleInt(t *testing.T) {
	x := []int32{10, 11, 12, 13, 14}
	got := DownsampleInt(x, 2)
	want := []int32{10, 12, 14}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestWindowEdges(t *testing.T) {
	x := []int32{1, 2, 3, 4, 5}
	w := WindowInt(x, 0, 2, 3)
	want := []int32{1, 1, 1, 2, 3}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("left-edge window[%d] = %v, want %v", i, w[i], want[i])
		}
	}
	w = WindowInt(x, 4, 2, 3)
	want = []int32{3, 4, 5, 5, 5}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("right-edge window[%d] = %v, want %v", i, w[i], want[i])
		}
	}
}

func TestWindowInterior(t *testing.T) {
	x := make([]int32, 300)
	for i := range x {
		x[i] = int32(i)
	}
	w := WindowInt(x, 150, 100, 100)
	if len(w) != 200 {
		t.Fatalf("window length %d, want 200", len(w))
	}
	if w[0] != 50 || w[100] != 150 || w[199] != 249 {
		t.Fatalf("window content wrong: w[0]=%v w[100]=%v w[199]=%v", w[0], w[100], w[199])
	}
}

func BenchmarkAtrousDWT(b *testing.B) {
	r := rng.New(1)
	x := make([]float64, 360*30)
	for i := range x {
		x[i] = r.Norm()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = AtrousDWT(x, 4)
	}
}
