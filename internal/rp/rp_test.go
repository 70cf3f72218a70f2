package rp

import (
	"math"
	"testing"
	"testing/quick"

	"rpbeat/internal/rng"
)

func TestNewRandomDimensions(t *testing.T) {
	m := NewRandom(rng.New(1), 8, 200)
	if m.K != 8 || m.D != 200 || len(m.El) != 1600 {
		t.Fatalf("bad dimensions: %d x %d, %d elements", m.K, m.D, len(m.El))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRandomSparsity(t *testing.T) {
	m := NewRandom(rng.New(2), 32, 200)
	zeros := 0
	for _, v := range m.El {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(len(m.El))
	if frac < 0.6 || frac > 0.73 {
		t.Fatalf("zero fraction %.3f, want ~2/3", frac)
	}
}

func TestProjectIntMatchesFloat(t *testing.T) {
	r := rng.New(3)
	m := NewRandom(r, 8, 50)
	vi := make([]int32, 50)
	vf := make([]float64, 50)
	for i := range vi {
		vi[i] = int32(r.Intn(2048))
		vf[i] = float64(vi[i])
	}
	ui := m.ProjectInt(vi)
	uf := m.Project(vf)
	for i := range ui {
		if float64(ui[i]) != uf[i] {
			t.Fatalf("coefficient %d: int %d, float %v", i, ui[i], uf[i])
		}
	}
}

func TestProjectLinearity(t *testing.T) {
	r := rng.New(4)
	m := NewRandom(r, 6, 40)
	a := make([]float64, 40)
	b := make([]float64, 40)
	for i := range a {
		a[i], b[i] = r.Norm(), r.Norm()
	}
	sum := make([]float64, 40)
	for i := range sum {
		sum[i] = a[i] + 2*b[i]
	}
	ua, ub, us := m.Project(a), m.Project(b), m.Project(sum)
	for i := range us {
		if math.Abs(us[i]-(ua[i]+2*ub[i])) > 1e-9 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestProjectPanicsOnBadLength(t *testing.T) {
	m := NewRandom(rng.New(5), 4, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Project(make([]float64, 11))
}

func TestCloneIsDeep(t *testing.T) {
	m := NewRandom(rng.New(7), 3, 3)
	c := m.Clone()
	c.El[0] = -m.El[0]
	if m.El[0] == c.El[0] && m.El[0] != 0 {
		t.Fatal("clone aliases original")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := 1 + r.Intn(8)
		d := 1 + r.Intn(100)
		m := NewRandom(r, k, d)
		p := Pack(m)
		back, err := p.Unpack()
		if err != nil {
			return false
		}
		for i := range m.El {
			if back.El[i] != m.El[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPackedAt reads every element of a packed matrix through packedDecode,
// the lookup table the packed kernel decodes with, and checks it against
// the dense element; rows start mid-byte since D is odd.
func TestPackedAt(t *testing.T) {
	m := NewRandom(rng.New(8), 5, 37)
	p := Pack(m)
	for i, want := range m.El {
		if got := packedDecode[p.Bits[i/4]][i%4]; got != want {
			t.Fatalf("element %d (row %d, col %d) decodes to %d, want %d", i, i/m.D, i%m.D, got, want)
		}
	}
}

func TestPackedProjectMatchesDense(t *testing.T) {
	r := rng.New(9)
	m := NewRandom(r, 8, 50)
	p := Pack(m)
	v := make([]int32, 50)
	for i := range v {
		v[i] = int32(r.Intn(2048)) - 1024
	}
	ud := m.ProjectInt(v)
	up := p.ProjectInt(v)
	for i := range ud {
		if ud[i] != up[i] {
			t.Fatalf("coefficient %d: dense %d, packed %d", i, ud[i], up[i])
		}
	}
}

func TestPackedByteSizeIsQuarter(t *testing.T) {
	m := NewRandom(rng.New(10), 8, 200)
	p := Pack(m)
	if p.ByteSize() != len(m.El)/4 {
		t.Fatalf("packed %d bytes, dense %d bytes; want exactly 1/4", p.ByteSize(), len(m.El))
	}
}

func TestUnpackRejectsInvalidCode(t *testing.T) {
	p := &PackedMatrix{K: 1, D: 1, Bits: []byte{0b11}}
	if _, err := p.Unpack(); err == nil {
		t.Fatal("code 11 should be rejected")
	}
}

func TestJLDistancePreservation(t *testing.T) {
	// Johnson-Lindenstrauss sanity: with k=32 and the proper sqrt(3/k)
	// scaling, pairwise distances are preserved within a modest distortion
	// on average. This is a statistical check of projection quality.
	r := rng.New(13)
	const d, k, npts = 200, 32, 40
	m := NewRandom(r, k, d)
	pts := make([][]float64, npts)
	proj := make([][]float64, npts)
	scale := math.Sqrt(3.0 / k)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = r.Norm()
		}
		proj[i] = m.Project(pts[i])
		for j := range proj[i] {
			proj[i][j] *= scale
		}
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += (a[i] - b[i]) * (a[i] - b[i])
		}
		return math.Sqrt(s)
	}
	var ratioSum float64
	var count int
	for i := 0; i < npts; i++ {
		for j := i + 1; j < npts; j++ {
			do := dist(pts[i], pts[j])
			dp := dist(proj[i], proj[j])
			ratioSum += dp / do
			count++
		}
	}
	meanRatio := ratioSum / float64(count)
	if meanRatio < 0.85 || meanRatio > 1.15 {
		t.Fatalf("mean distance ratio %.3f, want ~1 (JL property)", meanRatio)
	}
}

func TestProjectIntNoOverflowWithinADCRange(t *testing.T) {
	// Worst case: all-ones row, all samples at ADC max. 200 * 2047 << 2^31.
	m := &Matrix{K: 1, D: 200, El: make([]int8, 200)}
	for i := range m.El {
		m.El[i] = 1
	}
	v := make([]int32, 200)
	for i := range v {
		v[i] = 2047
	}
	u := m.ProjectInt(v)
	if u[0] != 200*2047 {
		t.Fatalf("sum = %d, want %d", u[0], 200*2047)
	}
}

func BenchmarkProjectIntDense_8x200(b *testing.B) {
	r := rng.New(1)
	m := NewRandom(r, 8, 200)
	v := make([]int32, 200)
	for i := range v {
		v[i] = int32(r.Intn(2048))
	}
	u := make([]int32, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ProjectIntInto(v, u)
	}
}

func BenchmarkProjectIntPacked_8x50(b *testing.B) {
	r := rng.New(1)
	m := NewRandom(r, 8, 50)
	p := Pack(m)
	v := make([]int32, 50)
	for i := range v {
		v[i] = int32(r.Intn(2048))
	}
	u := make([]int32, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ProjectIntInto(v, u)
	}
}
