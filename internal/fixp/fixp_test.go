package fixp

import (
	"math"
	"testing"
	"testing/quick"

	"rpbeat/internal/nfc"
	"rpbeat/internal/rng"
)

func TestG1Value(t *testing.T) {
	// g1 = 65535 * exp(-2.35^2/2) ≈ 65535 * 0.0632.
	want := 65535 * math.Exp(-2.35*2.35/2)
	if math.Abs(float64(g1)-want) > 1 {
		t.Fatalf("g1 = %d, want ~%.0f", g1, want)
	}
}

func TestLinearMFSegments(t *testing.T) {
	m := NewIntMF(MFLinear, 1000, 100) // c=1000, sigma=100 -> S=235
	s := m.S
	if m.Eval(1000) != GradeMax {
		t.Fatalf("grade at center = %d, want %d", m.Eval(1000), GradeMax)
	}
	// At |d| = S the grade should be ~g1.
	if g := m.Eval(1000 + s); absDiff(uint32(g), uint32(g1)) > 2 {
		t.Fatalf("grade at S = %d, want ~%d", g, g1)
	}
	// At |d| = 2S the grade should be ~1 (the constant tail).
	if g := m.Eval(1000 + 2*s); g != 1 {
		t.Fatalf("grade at 2S = %d, want 1", g)
	}
	// Inside [2S, 4S): exactly 1.
	if g := m.Eval(1000 + 3*s); g != 1 {
		t.Fatalf("grade at 3S = %d, want 1", g)
	}
	// Beyond 4S: 0.
	if g := m.Eval(1000 + 4*s); g != 0 {
		t.Fatalf("grade at 4S = %d, want 0", g)
	}
	if g := m.Eval(1000 - 4*s - 100); g != 0 {
		t.Fatalf("grade far below = %d, want 0", g)
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestLinearMFSymmetry(t *testing.T) {
	m := NewIntMF(MFLinear, 0, 50)
	for d := int32(0); d < 600; d += 7 {
		if m.Eval(d) != m.Eval(-d) {
			t.Fatalf("asymmetric at d=%d: %d vs %d", d, m.Eval(d), m.Eval(-d))
		}
	}
}

func TestLinearMFMonotoneFromCenter(t *testing.T) {
	m := NewIntMF(MFLinear, 0, 80)
	prev := m.Eval(0)
	for d := int32(1); d < 1000; d++ {
		g := m.Eval(d)
		if g > prev {
			t.Fatalf("grade increased away from center at d=%d: %d > %d", d, g, prev)
		}
		prev = g
	}
}

func TestLinearMFApproximatesGaussian(t *testing.T) {
	// Max relative deviation from the true Gaussian inside |d| < S should be
	// modest (the linearization is designed to hug the curve there).
	m := NewIntMF(MFLinear, 0, 100)
	var maxAbs float64
	for d := int32(0); d < m.S; d++ {
		g := float64(m.Eval(d))
		ref := m.EvalFloat(d)
		if e := math.Abs(g-ref) / GradeMax; e > maxAbs {
			maxAbs = e
		}
	}
	if maxAbs > 0.20 {
		t.Fatalf("linearization deviates %.1f%% from Gaussian inside |d|<S", 100*maxAbs)
	}
}

func TestTriangularMF(t *testing.T) {
	m := NewIntMF(MFTriangular, 0, 100)
	if m.Eval(0) != GradeMax {
		t.Fatalf("triangular at center = %d", m.Eval(0))
	}
	if g := m.Eval(2 * m.S); g != 0 {
		t.Fatalf("triangular at 2S = %d, want 0", g)
	}
	if g := m.Eval(3 * m.S); g != 0 {
		t.Fatalf("triangular beyond 2S = %d, want 0", g)
	}
	// Halfway: ~GradeMax/2.
	if g := m.Eval(m.S); absDiff(uint32(g), GradeMax/2) > 300 {
		t.Fatalf("triangular at S = %d, want ~%d", g, GradeMax/2)
	}
}

func TestGaussianRefMF(t *testing.T) {
	m := NewIntMF(MFGaussianRef, 0, 100)
	if m.Eval(0) != GradeMax {
		t.Fatalf("gaussian at center = %d", m.Eval(0))
	}
	want := uint16(math.Round(GradeMax * math.Exp(-0.5)))
	if g := m.Eval(100); absDiff(uint32(g), uint32(want)) > 1 {
		t.Fatalf("gaussian at sigma = %d, want %d", g, want)
	}
}

func TestMFKindString(t *testing.T) {
	if MFLinear.String() != "linear" || MFTriangular.String() != "triangular" || MFGaussianRef.String() != "gaussian" {
		t.Fatal("MF kind names wrong")
	}
	if MFKind(9).String() == "" {
		t.Fatal("unknown kind should format")
	}
}

func TestTinySigmaClampsToS1(t *testing.T) {
	m := NewIntMF(MFLinear, 0, 0.01)
	if m.S != 1 {
		t.Fatalf("S = %d, want clamp to 1", m.S)
	}
	if m.Eval(0) != GradeMax {
		t.Fatal("center grade wrong for tiny sigma")
	}
	if m.Eval(4) != 0 {
		t.Fatalf("grade at 4S: %d", m.Eval(4))
	}
}

func TestAlphaQ15RoundTrip(t *testing.T) {
	for _, a := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
		q := AlphaToQ15(a)
		if math.Abs(q.Float()-a) > 1.0/(1<<15) {
			t.Fatalf("alpha %v -> %v", a, q.Float())
		}
	}
	if AlphaToQ15(-1) != 0 || AlphaToQ15(2) != 1<<15 {
		t.Fatal("alpha clamping broken")
	}
}

func TestFuzzifyPreservesTopClass(t *testing.T) {
	// Property: the class the integer fuzzifier ranks first matches the
	// exact (log-domain) product whenever the exact winner leads by a clear
	// margin AND the per-coefficient grade ratios between classes stay
	// bounded — the regime real beats live in, where the three grades per
	// coefficient come from overlapping membership functions. (With
	// unbounded adversarial ratios a class can truncate to zero while far
	// below the running maximum, the collapse Sec. III-B accepts as rare;
	// TestFuzzifyZeroGradeKillsClass covers that path.)
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := 2 + r.Intn(31)
		grades := make([]uint16, k*NumClasses)
		for kk := 0; kk < k; kk++ {
			base := 256 + r.Intn(GradeMax-512)
			for l := 0; l < NumClasses; l++ {
				// Per-class ratio within 2x of the coefficient's base grade.
				g := int(float64(base) * (0.5 + r.Float64()*1.5))
				if g < 1 {
					g = 1
				}
				if g > GradeMax {
					g = GradeMax
				}
				grades[kk*NumClasses+l] = uint16(g)
			}
		}
		got := Fuzzify(k, grades)
		var logp [NumClasses]float64
		for kk := 0; kk < k; kk++ {
			for l := 0; l < NumClasses; l++ {
				logp[l] += math.Log(float64(grades[kk*NumClasses+l]))
			}
		}
		exactBest, intBest := 0, 0
		for l := 1; l < NumClasses; l++ {
			if logp[l] > logp[exactBest] {
				exactBest = l
			}
			if got[l] > got[intBest] {
				intBest = l
			}
		}
		// Margin of the exact winner over the exact runner-up.
		margin := math.Inf(1)
		for l := 0; l < NumClasses; l++ {
			if l != exactBest && logp[exactBest]-logp[l] < margin {
				margin = logp[exactBest] - logp[l]
			}
		}
		if margin > 0.05 && intBest != exactBest {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFuzzifyTopClassPrecision(t *testing.T) {
	// The winning accumulator and any class within a small factor of it keep
	// enough precision that their ratio approximates the exact ratio.
	r := rng.New(77)
	for trial := 0; trial < 200; trial++ {
		k := 8
		grades := make([]uint16, k*NumClasses)
		// All classes near full scale: ratios stay close to 1.
		for i := range grades {
			grades[i] = uint16(GradeMax - r.Intn(2000))
		}
		got := Fuzzify(k, grades)
		var logp [NumClasses]float64
		for kk := 0; kk < k; kk++ {
			for l := 0; l < NumClasses; l++ {
				logp[l] += math.Log(float64(grades[kk*NumClasses+l]))
			}
		}
		for a := 0; a < NumClasses; a++ {
			for b := 0; b < NumClasses; b++ {
				if got[b] == 0 {
					continue
				}
				gotRatio := float64(got[a]) / float64(got[b])
				wantRatio := math.Exp(logp[a] - logp[b])
				if math.Abs(gotRatio-wantRatio) > 0.01*wantRatio {
					t.Fatalf("trial %d: ratio %d/%d = %v, exact %v", trial, a, b, gotRatio, wantRatio)
				}
			}
		}
	}
}

func TestFuzzifyZeroGradeKillsClass(t *testing.T) {
	k := 4
	grades := make([]uint16, k*NumClasses)
	for i := range grades {
		grades[i] = GradeMax
	}
	grades[2*NumClasses+1] = 0 // class 1 hits a zero grade at coefficient 2
	f := Fuzzify(k, grades)
	if f[1] != 0 {
		t.Fatalf("class with zero grade survived: %v", f)
	}
	if f[0] == 0 || f[2] == 0 {
		t.Fatalf("other classes died: %v", f)
	}
}

func TestFuzzifyAllZeroGivesAllZero(t *testing.T) {
	k := 8
	grades := make([]uint16, k*NumClasses) // all zero
	f := Fuzzify(k, grades)
	if f[0] != 0 || f[1] != 0 || f[2] != 0 {
		t.Fatalf("expected dead accumulators, got %v", f)
	}
}

func TestFuzzifyEqualGradesStayEqual(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := 2 + r.Intn(20)
		grades := make([]uint16, k*NumClasses)
		for kk := 0; kk < k; kk++ {
			g := uint16(1 + r.Intn(GradeMax))
			for l := 0; l < NumClasses; l++ {
				grades[kk*NumClasses+l] = g
			}
		}
		out := Fuzzify(k, grades)
		return out[0] == out[1] && out[1] == out[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDefuzzifyBasics(t *testing.T) {
	if d := Defuzzify([NumClasses]uint32{100, 10, 5}, AlphaToQ15(0.2)); d != nfc.DecideN {
		t.Fatalf("clear N: got %v", d)
	}
	if d := Defuzzify([NumClasses]uint32{10, 100, 5}, AlphaToQ15(0.2)); d != nfc.DecideL {
		t.Fatalf("clear L: got %v", d)
	}
	if d := Defuzzify([NumClasses]uint32{10, 5, 100}, AlphaToQ15(0.2)); d != nfc.DecideV {
		t.Fatalf("clear V: got %v", d)
	}
	if d := Defuzzify([NumClasses]uint32{100, 98, 90}, AlphaToQ15(0.2)); d != nfc.DecideU {
		t.Fatalf("close call: got %v, want U", d)
	}
	if d := Defuzzify([NumClasses]uint32{0, 0, 0}, 0); d != nfc.DecideU {
		t.Fatalf("dead accumulators: got %v, want U", d)
	}
}

func TestDefuzzifyMatchesFloatRule(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var fv [NumClasses]uint32
		for l := range fv {
			fv[l] = uint32(r.Intn(1 << 30))
		}
		alpha := r.Float64()
		q := AlphaToQ15(alpha)
		got := Defuzzify(fv, q)
		// Float reference with the Q15-rounded alpha (so both sides use the
		// same threshold).
		var ff [NumClasses]float64
		for l := range ff {
			ff[l] = float64(fv[l])
		}
		want := nfc.Decide(ff, q.Float())
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeAndClassifyAgreesWithFloat(t *testing.T) {
	// Train a float NFC on separated integer-scale clusters, quantize with
	// the linear MF, and check the two pipelines agree on most beats.
	r := rng.New(42)
	k := 8
	var u [][]float64
	var label []uint8
	centers := [NumClasses]float64{-4000, 0, 4000}
	for l := 0; l < NumClasses; l++ {
		for i := 0; i < 150; i++ {
			row := make([]float64, k)
			for j := range row {
				row[j] = centers[l] + 900*r.Norm()
			}
			u = append(u, row)
			label = append(label, uint8(l))
		}
	}
	p := nfc.InitFromData(k, u, label)
	c, err := Quantize(p, MFLinear)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	agree := 0
	grades := make([]uint16, k*NumClasses)
	for i := range u {
		ui := make([]int32, k)
		for j := range ui {
			ui[j] = int32(math.Round(u[i][j]))
		}
		di := c.ClassifyInto(ui, AlphaToQ15(0.05), grades)
		df := p.Classify(u[i], 0.05)
		if di == df {
			agree++
		}
	}
	frac := float64(agree) / float64(len(u))
	if frac < 0.9 {
		t.Fatalf("int/float agreement %.3f, want >= 0.9", frac)
	}
}

func TestQuantizeRejectsInvalidParams(t *testing.T) {
	p := nfc.NewParams(2)
	p.Sigma[0] = -1
	if _, err := Quantize(p, MFLinear); err == nil {
		t.Fatal("invalid params should fail quantization")
	}
}

func TestTableBytes(t *testing.T) {
	p := nfc.NewParams(8)
	c, err := Quantize(p, MFLinear)
	if err != nil {
		t.Fatal(err)
	}
	if c.TableBytes() != 8*3*16 {
		t.Fatalf("table bytes = %d", c.TableBytes())
	}
}

func TestClassifierValidate(t *testing.T) {
	c := &Classifier{K: 0}
	if c.Validate() == nil {
		t.Fatal("K=0 should fail")
	}
	c = &Classifier{K: 2, MF: make([]IntMF, 3)}
	if c.Validate() == nil {
		t.Fatal("wrong MF count should fail")
	}
}

func BenchmarkIntMFEval(b *testing.B) {
	m := NewIntMF(MFLinear, 1000, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Eval(int32(i & 0xfff))
	}
}

func BenchmarkClassify_K8(b *testing.B) {
	r := rng.New(1)
	p := nfc.NewParams(8)
	for i := range p.C {
		p.C[i] = 4000 * r.Norm()
		p.Sigma[i] = 500 + 500*r.Float64()
	}
	c, err := Quantize(p, MFLinear)
	if err != nil {
		b.Fatal(err)
	}
	u := make([]int32, 8)
	for i := range u {
		u[i] = int32(4000 * r.Norm())
	}
	grades := make([]uint16, 8*NumClasses)
	alpha := AlphaToQ15(0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.ClassifyInto(u, alpha, grades)
	}
}
