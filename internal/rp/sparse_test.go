package rp

import (
	"slices"
	"testing"
	"testing/quick"

	"rpbeat/internal/rng"
)

// referenceProjectInt is the obviously-correct element-walking projection the
// optimized kernels are checked against.
func referenceProjectInt(m *Matrix, v []int32) []int32 {
	u := make([]int32, m.K)
	for r := 0; r < m.K; r++ {
		var s int32
		for c := 0; c < m.D; c++ {
			switch m.El[r*m.D+c] {
			case 1:
				s += v[c]
			case -1:
				s -= v[c]
			}
		}
		u[r] = s
	}
	return u
}

// sparseProjectInt is ProjectIntInto into a fresh slice.
func sparseProjectInt(s *SparseMatrix, v []int32) []int32 {
	u := make([]int32, s.K)
	s.ProjectIntInto(v, u)
	return u
}

// TestProjectionEquivalenceQuick is the cross-representation property test:
// for random shapes (including D not divisible by 4, so packed rows start
// mid-byte) and random signed inputs, dense, packed and sparse projections —
// the sparse one built from the dense matrix and from the unpacked 2-bit
// form, the codec's path — must agree exactly with the reference.
func TestProjectionEquivalenceQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := 1 + r.Intn(12)
		d := 1 + r.Intn(130)
		m := NewRandom(r, k, d)
		v := make([]int32, d)
		for i := range v {
			v[i] = int32(r.Intn(4096)) - 2048
		}
		want := referenceProjectInt(m, v)

		p := Pack(m)
		sd := NewSparse(m)
		unpacked, err := p.Unpack()
		if err != nil {
			t.Logf("seed %d: Unpack: %v", seed, err)
			return false
		}
		sp := NewSparse(unpacked)
		if err := sd.Validate(); err != nil {
			t.Logf("seed %d: sparse validate: %v", seed, err)
			return false
		}
		for name, got := range map[string][]int32{
			"dense":         m.ProjectInt(v),
			"packed":        p.ProjectInt(v),
			"sparse-dense":  sparseProjectInt(sd, v),
			"sparse-packed": sparseProjectInt(sp, v),
		} {
			for i := range want {
				if got[i] != want[i] {
					t.Logf("seed %d (%dx%d): %s coefficient %d = %d, want %d",
						seed, k, d, name, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSparseAllZeroMatrix(t *testing.T) {
	m := &Matrix{K: 4, D: 10, El: make([]int8, 40)}
	s := NewSparse(m)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Pos) + len(s.Neg); n != 0 {
		t.Fatalf("all-zero matrix has %d stored entries", n)
	}
	v := make([]int32, 10)
	for i := range v {
		v[i] = int32(i + 1)
	}
	for i, x := range sparseProjectInt(s, v) {
		if x != 0 {
			t.Fatalf("coefficient %d = %d, want 0", i, x)
		}
	}
}

func TestSparseEmptyRow(t *testing.T) {
	// Row 1 is all zeros; rows 0 and 2 are not.
	m := &Matrix{K: 3, D: 5, El: make([]int8, 15)}
	m.Set(0, 1, 1)
	m.Set(0, 4, -1)
	m.Set(2, 0, -1)
	m.Set(2, 3, 1)
	s := NewSparse(m)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	v := []int32{10, 20, 30, 40, 50}
	got := sparseProjectInt(s, v)
	want := referenceProjectInt(m, v)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coefficient %d = %d, want %d", i, got[i], want[i])
		}
	}
	if got[1] != 0 {
		t.Fatalf("empty row projected to %d, want 0", got[1])
	}
}

// TestSparseDenseRoundTrip rebuilds the dense matrix from the sparse index
// lists: NewSparse must keep every non-zero, with its sign, at its column.
func TestSparseDenseRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := NewRandom(r, 1+r.Intn(6), 1+r.Intn(60))
		s := NewSparse(m)
		back := make([]int8, len(m.El))
		for row := 0; row < s.K; row++ {
			for _, c := range s.Pos[s.PosStart[row]:s.PosStart[row+1]] {
				back[row*s.D+int(c)] = 1
			}
			for _, c := range s.Neg[s.NegStart[row]:s.NegStart[row+1]] {
				back[row*s.D+int(c)] = -1
			}
		}
		return slices.Equal(back, m.El)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSparseNonZerosAndByteSize(t *testing.T) {
	m := NewRandom(rng.New(21), 8, 200)
	s := NewSparse(m)
	nonZeros := 0
	for _, v := range m.El {
		if v != 0 {
			nonZeros++
		}
	}
	if n := len(s.Pos) + len(s.Neg); n != nonZeros {
		t.Fatalf("sparse stores %d entries, dense has %d non-zeros", n, nonZeros)
	}
	want := 4 * (nonZeros + 2*(s.K+1))
	if s.ByteSize() != want {
		t.Fatalf("ByteSize %d, want %d", s.ByteSize(), want)
	}
}

func BenchmarkProjectIntSparse_8x50(b *testing.B) {
	r := rng.New(1)
	s := NewSparse(NewRandom(r, 8, 50))
	v := make([]int32, 50)
	for i := range v {
		v[i] = int32(r.Intn(2048))
	}
	u := make([]int32, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ProjectIntInto(v, u)
	}
}
