package bitemb

import (
	"testing"

	"rpbeat/internal/beatset"
	"rpbeat/internal/fixp"
	"rpbeat/internal/metrics"
	"rpbeat/internal/nfc"
	"rpbeat/internal/rng"
	"rpbeat/internal/rp"
	"rpbeat/internal/testutil"
)

// refClassify is the obviously-correct reference: dense projection, per-bit
// threshold comparison with explicit branches, per-class Hamming distance by
// bit loop, then the margin + radius rule spelled out in floats.
func refClassify(p *Params, m *rp.Matrix, v []int32, alpha fixp.AlphaQ15) nfc.Decision {
	u := m.ProjectInt(v)
	bits := make([]int, p.K)
	for j := range bits {
		if u[j] >= p.Thresholds[j] {
			bits[j] = 1
		}
	}
	var dist [nfc.NumClasses]int
	for l := 0; l < nfc.NumClasses; l++ {
		for j := 0; j < p.K; j++ {
			pb := int(p.Protos[l][j/64] >> uint(j&63) & 1)
			if pb != bits[j] {
				dist[l]++
			}
		}
	}
	var f [nfc.NumClasses]uint32
	for l := range f {
		f[l] = uint32(p.K - dist[l])
	}
	d := fixp.Defuzzify(f, alpha)
	if d != nfc.DecideU && dist[d] > int(p.Radii[d]) {
		return nfc.DecideU
	}
	return d
}

// randomParams fabricates a structurally valid head for kernel tests.
func randomParams(r *rng.Rand, k int) *Params {
	p := &Params{K: k, Thresholds: make([]int32, k)}
	for j := range p.Thresholds {
		p.Thresholds[j] = int32(r.Intn(4000) - 2000)
	}
	w := Words(k)
	for l := range p.Protos {
		p.Protos[l] = make([]uint64, w)
		for j := 0; j < k; j++ {
			if r.Intn(2) == 1 {
				p.Protos[l][j/64] |= 1 << uint(j&63)
			}
		}
		p.Radii[l] = uint16(r.Intn(k + 1))
	}
	return p
}

func randomInput(r *rng.Rand, d int) []int32 {
	v := make([]int32, d)
	for i := range v {
		v[i] = int32(r.Intn(2048))
	}
	return v
}

// TestFusedKernelMatchesReference holds the fused sparse kernel, the
// two-step PackInto+ClassifyCode path and the dense reference to the same
// decision across random heads and inputs, for single-word and multi-word K
// and a sweep of α including both extremes.
func TestFusedKernelMatchesReference(t *testing.T) {
	r := rng.New(7)
	for _, k := range []int{1, 8, 32, 63, 64, 65, 100, 130} {
		const d = 50
		p := randomParams(r, k)
		if err := p.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		m := rp.NewVerySparse(r, k, d)
		s := rp.NewSparse(m)
		u := make([]int32, k)
		code := make([]uint64, Words(k))
		code2 := make([]uint64, Words(k))
		pre := make([]int32, PreLen(s))
		for trial := 0; trial < 200; trial++ {
			v := randomInput(r, d)
			alpha := fixp.AlphaQ15(r.Intn(1 << 16))
			if alpha > 1<<15 {
				alpha = 1 << 15
			}
			want := refClassify(p, m, v, alpha)
			if got := p.ClassifySparseInto(s, v, alpha, code, pre); got != want {
				t.Fatalf("k=%d trial %d: fused %v, reference %v", k, trial, got, want)
			}
			m.ProjectIntInto(v, u)
			if got := p.ClassifyInto(u, alpha, code2); got != want {
				t.Fatalf("k=%d trial %d: two-step %v, reference %v", k, trial, got, want)
			}
			for w := range code {
				if code[w] != code2[w] {
					t.Fatalf("k=%d trial %d: fused code %x != packed code %x", k, trial, code, code2)
				}
			}
		}
	}
}

// TestPackHighBitsClear verifies the partial final word never carries bits
// at positions >= K (the invariant Validate enforces on prototypes and
// Similarity's k-dist mapping relies on).
func TestPackHighBitsClear(t *testing.T) {
	r := rng.New(3)
	for _, k := range []int{1, 7, 63, 65, 100} {
		p := randomParams(r, k)
		u := make([]int32, k)
		for j := range u {
			u[j] = 1 << 20 // all bits set
		}
		for j := range p.Thresholds {
			p.Thresholds[j] = 0
		}
		code := make([]uint64, Words(k))
		p.PackInto(u, code)
		if rem := k & 63; rem != 0 {
			if hi := code[len(code)-1] &^ (1<<uint(rem) - 1); hi != 0 {
				t.Fatalf("k=%d: high bits set: %x", k, hi)
			}
		}
		f := p.Similarity(code)
		for l, v := range f {
			if int(v) > k {
				t.Fatalf("k=%d: similarity %d for class %d exceeds K", k, v, l)
			}
		}
	}
}

// TestRadiusGate pins the gate semantics: a code inside the winning class's
// radius keeps its decision, one outside is rejected as U.
func TestRadiusGate(t *testing.T) {
	p := &Params{K: 8, Thresholds: make([]int32, 8)}
	for l := range p.Protos {
		p.Protos[l] = make([]uint64, 1)
	}
	p.Protos[nfc.IdxL][0] = 0xff // class L prototype: all ones
	p.Radii = [nfc.NumClasses]uint16{0: 2, 1: 2, 2: 2}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Code at distance 1 from L (7 from N and V): decisive, inside radius.
	code := []uint64{0x7f}
	if got := p.ClassifyCode(code, fixp.AlphaToQ15(0.1)); got != nfc.DecideL {
		t.Fatalf("inside radius: got %v, want L", got)
	}
	// Distance 3 from L (5 from N and V): still arg-max L at α=0, but
	// outside the radius — rejected.
	code[0] = 0x1f
	if got := p.ClassifyCode(code, 0); got != nfc.DecideU {
		t.Fatalf("outside radius: got %v, want U", got)
	}
}

// TestKernelZeroAlloc is the runtime half of the //rpbeat:allocfree
// annotations on the classify kernels.
func TestKernelZeroAlloc(t *testing.T) {
	r := rng.New(11)
	for _, k := range []int{8, 100} {
		const d = 50
		p := randomParams(r, k)
		m := rp.NewVerySparse(r, k, d)
		s := rp.NewSparse(m)
		v := randomInput(r, d)
		u := make([]int32, k)
		code := make([]uint64, Words(k))
		pre := make([]int32, PreLen(s))
		alpha := fixp.AlphaToQ15(0.05)
		testutil.AssertZeroAlloc(t, "bitemb.ClassifySparseInto", func() {
			p.ClassifySparseInto(s, v, alpha, code, pre)
		})
		testutil.AssertZeroAlloc(t, "bitemb.ClassifyInto", func() {
			m.ProjectIntInto(v, u)
			p.ClassifyInto(u, alpha, code)
		})
	}
}

func TestValidateRejects(t *testing.T) {
	r := rng.New(5)
	base := func() *Params { return randomParams(r, 8) }
	cases := []struct {
		name    string
		corrupt func(*Params)
	}{
		{"wrong threshold count", func(p *Params) { p.Thresholds = p.Thresholds[:7] }},
		{"wrong proto words", func(p *Params) { p.Protos[1] = nil }},
		{"high bits in proto", func(p *Params) { p.Protos[2][0] |= 1 << 13 }},
		{"radius beyond K", func(p *Params) { p.Radii[0] = 9 }},
	}
	for _, tc := range cases {
		p := base()
		tc.corrupt(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validate accepted a broken head", tc.name)
		}
	}
}

// TestFit derives the head for one fixed very sparse projection of a tiny
// dataset: every training beat sits inside its own class radius (the
// calibration contract Fit documents), and at the smallest α reaching the
// ARR target on training set 2 the held-out test NDR is not degenerate.
func TestFit(t *testing.T) {
	if testing.Short() {
		t.Skip("fits on a synthesized dataset")
	}
	ds, err := beatset.Build(beatset.Config{Seed: 42, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	const k, down = 8, 4
	P := rp.NewVerySparse(rng.New(9), k, ds.Dim(down))
	project := func(idx []int) [][]int32 {
		out := make([][]int32, len(idx))
		for i, b := range idx {
			out[i] = P.ProjectInt(ds.IntWindow(b, down))
		}
		return out
	}
	train1, labels1 := project(ds.Train1), ds.Labels(ds.Train1)
	par, err := Fit(train1, labels1, k)
	if err != nil {
		t.Fatal(err)
	}
	code := make([]uint64, Words(k))
	for i, u := range train1 {
		par.PackInto(u, code)
		f := par.Similarity(code)
		if d := k - int(f[labels1[i]]); d > int(par.Radii[labels1[i]]) {
			t.Fatalf("training beat %d outside its class radius (%d > %d)", i, d, par.Radii[labels1[i]])
		}
	}
	alpha, achieved, err := metrics.MinAlphaForARR(par.Evals(project(ds.Train2), ds.Labels(ds.Train2)), 0.97)
	if err != nil || !achieved {
		t.Fatalf("training set 2 cannot reach ARR 0.97 (achieved %v, err %v)", achieved, err)
	}
	pt, _ := metrics.Evaluate(par.Evals(project(ds.Test), ds.Labels(ds.Test)), alpha)
	if pt.NDR <= 0.3 {
		t.Fatalf("degenerate test NDR %.3f", pt.NDR)
	}
}

// TestClassifyWordMatchesGeneral exhausts every 8-bit code against the
// general similarity + margin + radius path: the single-word fast path in
// ClassifyCode must be a pure specialization, never a different rule.
func TestClassifyWordMatchesGeneral(t *testing.T) {
	r := rng.New(31)
	const k = 8
	for trial := 0; trial < 8; trial++ {
		p := randomParams(r, k)
		for _, alpha := range []fixp.AlphaQ15{0, fixp.AlphaToQ15(0.25), fixp.AlphaToQ15(1)} {
			for c := uint64(0); c < 1<<k; c++ {
				code := []uint64{c}
				f := p.Similarity(code)
				want := p.gate(f, fixp.Defuzzify(f, alpha))
				if got := p.ClassifyCode(code, alpha); got != want {
					t.Fatalf("trial %d code %#x alpha %d: fast path %v, general %v",
						trial, c, alpha, got, want)
				}
			}
		}
	}
}
