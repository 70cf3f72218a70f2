package nfc

import (
	"math"
	"testing"

	"rpbeat/internal/rng"
)

func TestDecisionStrings(t *testing.T) {
	if DecideN.String() != "N" || DecideL.String() != "L" || DecideV.String() != "V" || DecideU.String() != "U" {
		t.Fatal("decision mnemonics wrong")
	}
	if Decision(9).String() == "" {
		t.Fatal("unknown decision should format")
	}
}

func TestAbnormal(t *testing.T) {
	if DecideN.Abnormal() {
		t.Fatal("N is not abnormal")
	}
	for _, d := range []Decision{DecideL, DecideV, DecideU} {
		if !d.Abnormal() {
			t.Fatalf("%v should be abnormal", d)
		}
	}
}

func TestNewParamsValid(t *testing.T) {
	p := NewParams(8)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := len(p.ToVector()); n != 48 {
		t.Fatalf("vector length %d, want 48", n)
	}
}

func TestValidateRejectsBadSigma(t *testing.T) {
	p := NewParams(2)
	p.Sigma[3] = 0
	if p.Validate() == nil {
		t.Fatal("zero sigma should fail validation")
	}
	p.Sigma[3] = math.NaN()
	if p.Validate() == nil {
		t.Fatal("NaN sigma should fail validation")
	}
}

func TestLogFuzzyPeakAtCenter(t *testing.T) {
	p := NewParams(1)
	p.C[IdxN] = 5
	p.C[IdxL] = -5
	p.C[IdxV] = 0
	var z [NumClasses]float64
	p.LogFuzzy([]float64{5}, &z)
	if z[IdxN] != 0 {
		t.Fatalf("log fuzzy at center = %v, want 0", z[IdxN])
	}
	if z[IdxL] >= z[IdxN] || z[IdxV] >= z[IdxN] {
		t.Fatal("off-center classes should score lower")
	}
}

func TestFuzzyMatchesDirectProduct(t *testing.T) {
	// For small K the direct product of Gaussians must agree with the
	// log-domain computation up to common scaling.
	r := rng.New(1)
	k := 3
	p := NewParams(k)
	for i := range p.C {
		p.C[i] = r.Norm()
		p.Sigma[i] = 0.5 + r.Float64()
	}
	u := []float64{r.Norm(), r.Norm(), r.Norm()}
	direct := [NumClasses]float64{1, 1, 1}
	for kk := 0; kk < k; kk++ {
		for l := 0; l < NumClasses; l++ {
			idx := kk*NumClasses + l
			d := u[kk] - p.C[idx]
			direct[l] *= math.Exp(-d * d / (2 * p.Sigma[idx] * p.Sigma[idx]))
		}
	}
	f := p.Fuzzy(u)
	// Ratios must match.
	for a := 0; a < NumClasses; a++ {
		for b := 0; b < NumClasses; b++ {
			if direct[b] == 0 || f[b] == 0 {
				continue
			}
			got := f[a] / f[b]
			want := direct[a] / direct[b]
			if math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("ratio %d/%d: got %v want %v", a, b, got, want)
			}
		}
	}
}

func TestFuzzyNoUnderflowLargeK(t *testing.T) {
	// 32 coefficients far from centers: raw products underflow float64, but
	// the normalized computation must keep the max class at 1.
	p := NewParams(32)
	for i := range p.C {
		p.C[i] = 100 // all far away
	}
	u := make([]float64, 32)
	f := p.Fuzzy(u)
	if math.IsNaN(f[0]) || f[0] == 0 && f[1] == 0 && f[2] == 0 {
		t.Fatalf("fuzzy underflowed: %v", f)
	}
	max := math.Max(f[0], math.Max(f[1], f[2]))
	if math.Abs(max-1) > 1e-12 {
		t.Fatalf("max fuzzy = %v, want 1", max)
	}
}

func TestDecideArgmaxAtAlphaZero(t *testing.T) {
	if d := Decide([NumClasses]float64{0.5, 0.9, 0.1}, 0); d != DecideL {
		t.Fatalf("got %v, want L", d)
	}
	if d := Decide([NumClasses]float64{0.9, 0.5, 0.1}, 0); d != DecideN {
		t.Fatalf("got %v, want N", d)
	}
	if d := Decide([NumClasses]float64{0.1, 0.5, 0.9}, 0); d != DecideV {
		t.Fatalf("got %v, want V", d)
	}
}

func TestDecideRejectsCloseCalls(t *testing.T) {
	f := [NumClasses]float64{0.48, 0.52, 0.0}
	// M1-M2 = 0.04, S = 1.0 -> rejected for alpha > 0.04.
	if d := Decide(f, 0.1); d != DecideU {
		t.Fatalf("got %v, want U", d)
	}
	if d := Decide(f, 0.03); d != DecideL {
		t.Fatalf("got %v, want L", d)
	}
}

func TestDecideAlphaMonotone(t *testing.T) {
	// Raising alpha can only move decisions toward U, never change the
	// assigned class.
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		var f [NumClasses]float64
		for l := range f {
			f[l] = r.Float64()
		}
		prev := Decide(f, 0)
		for _, a := range []float64{0.1, 0.3, 0.5, 0.8, 1.0} {
			d := Decide(f, a)
			if d != prev && d != DecideU {
				t.Fatalf("alpha %v changed class from %v to %v", a, prev, d)
			}
			if d == DecideU {
				prev = DecideU
			}
		}
	}
}

func TestDecideDegenerate(t *testing.T) {
	if d := Decide([NumClasses]float64{0, 0, 0}, 0.1); d != DecideU {
		t.Fatalf("all-zero fuzzy values: got %v, want U", d)
	}
	if d := Decide([NumClasses]float64{math.NaN(), 1, 1}, 0.1); d != DecideU {
		t.Fatalf("NaN fuzzy values: got %v, want U", d)
	}
}

func TestVectorRoundTrip(t *testing.T) {
	r := rng.New(3)
	p := NewParams(4)
	for i := range p.C {
		p.C[i] = r.Norm() * 10
		p.Sigma[i] = 0.1 + r.Float64()*5
	}
	x := p.ToVector()
	q := NewParams(4)
	q.FromVector(x)
	for i := range p.C {
		if math.Abs(p.C[i]-q.C[i]) > 1e-12 {
			t.Fatalf("center %d mismatch", i)
		}
		if math.Abs(p.Sigma[i]-q.Sigma[i]) > 1e-12*p.Sigma[i] {
			t.Fatalf("sigma %d mismatch: %v vs %v", i, p.Sigma[i], q.Sigma[i])
		}
	}
}

func TestInitFromData(t *testing.T) {
	r := rng.New(4)
	// Three well-separated clusters in 2-D.
	centers := [NumClasses][2]float64{{0, 0}, {10, 0}, {0, 10}}
	var u [][]float64
	var label []uint8
	for l := 0; l < NumClasses; l++ {
		for i := 0; i < 100; i++ {
			u = append(u, []float64{
				centers[l][0] + r.Norm(),
				centers[l][1] + r.Norm(),
			})
			label = append(label, uint8(l))
		}
	}
	p := InitFromData(2, u, label)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < NumClasses; l++ {
		for kk := 0; kk < 2; kk++ {
			idx := kk*NumClasses + l
			if math.Abs(p.C[idx]-centers[l][kk]) > 0.5 {
				t.Fatalf("class %d coeff %d center %v, want %v", l, kk, p.C[idx], centers[l][kk])
			}
			if p.Sigma[idx] < 0.5 || p.Sigma[idx] > 2 {
				t.Fatalf("class %d coeff %d sigma %v, want ~1", l, kk, p.Sigma[idx])
			}
		}
	}
	// Classification should be near-perfect on such data.
	correct := 0
	for i := range u {
		d := p.Classify(u[i], 0)
		want := []Decision{DecideN, DecideL, DecideV}[label[i]]
		if d == want {
			correct++
		}
	}
	if correct < 295 {
		t.Fatalf("only %d/300 correct on separated clusters", correct)
	}
}
