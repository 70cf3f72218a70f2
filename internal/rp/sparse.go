package rp

import (
	"errors"
	"fmt"
)

// SparseMatrix is the third representation of a ternary projection matrix,
// optimized for the host-side hot path: per row, only the column indices of
// the non-zero entries are stored, split by sign. ProjectIntInto then costs
// one addition or subtraction per non-zero entry with no per-element branch —
// the ~d/3 operations per coefficient the paper's energy argument assumes
// (an Achlioptas matrix is zero with probability 2/3), instead of the d
// element decodes the dense and packed kernels pay.
//
// Layout is CSR-like: all rows' indices are concatenated in Pos and Neg,
// with PosStart/NegStart (length K+1) marking row boundaries, so the whole
// structure is four flat slices regardless of K.
//
// SparseMatrix trades memory for speed — see ByteSize and the "kernel memory
// layouts" section of DESIGN.md. It is built from a Matrix at load time and
// is immutable afterwards, so it may be shared freely across goroutines.
type SparseMatrix struct {
	K, D int
	// Pos holds the column indices of +1 entries, all rows concatenated;
	// row r's indices are Pos[PosStart[r]:PosStart[r+1]].
	Pos []int32
	// Neg holds the column indices of -1 entries, same layout.
	Neg []int32
	// PosStart and NegStart are the K+1 row offsets into Pos and Neg.
	PosStart, NegStart []int32
}

// NewSparse builds the sparse representation of a dense ternary matrix.
func NewSparse(m *Matrix) *SparseMatrix {
	s := &SparseMatrix{
		K:        m.K,
		D:        m.D,
		PosStart: make([]int32, m.K+1),
		NegStart: make([]int32, m.K+1),
	}
	npos, nneg := 0, 0
	for _, v := range m.El {
		switch v {
		case 1:
			npos++
		case -1:
			nneg++
		}
	}
	s.Pos = make([]int32, 0, npos)
	s.Neg = make([]int32, 0, nneg)
	for r := 0; r < m.K; r++ {
		row := m.El[r*m.D : (r+1)*m.D]
		for c, e := range row {
			switch e {
			case 1:
				s.Pos = append(s.Pos, int32(c))
			case -1:
				s.Neg = append(s.Neg, int32(c))
			}
		}
		s.PosStart[r+1] = int32(len(s.Pos))
		s.NegStart[r+1] = int32(len(s.Neg))
	}
	return s
}

// Validate checks structural invariants: monotone row offsets and in-range,
// strictly increasing column indices per row (the order NewSparse
// produces).
func (s *SparseMatrix) Validate() error {
	if s.K <= 0 || s.D <= 0 {
		return errors.New("rp: non-positive dimensions")
	}
	if len(s.PosStart) != s.K+1 || len(s.NegStart) != s.K+1 {
		return fmt.Errorf("rp: row offset lengths %d/%d, want %d", len(s.PosStart), len(s.NegStart), s.K+1)
	}
	if s.PosStart[0] != 0 || s.NegStart[0] != 0 {
		return errors.New("rp: row offsets must start at 0")
	}
	if int(s.PosStart[s.K]) != len(s.Pos) || int(s.NegStart[s.K]) != len(s.Neg) {
		return errors.New("rp: final row offsets do not cover the index slices")
	}
	check := func(idx []int32, start []int32, what string) error {
		for r := 0; r < s.K; r++ {
			if start[r] > start[r+1] {
				return fmt.Errorf("rp: %s offsets decrease at row %d", what, r)
			}
			row := idx[start[r]:start[r+1]]
			for i, c := range row {
				if c < 0 || int(c) >= s.D {
					return fmt.Errorf("rp: %s column %d out of range in row %d", what, c, r)
				}
				if i > 0 && c <= row[i-1] {
					return fmt.Errorf("rp: %s columns not strictly increasing in row %d", what, r)
				}
			}
		}
		return nil
	}
	if err := check(s.Pos, s.PosStart, "pos"); err != nil {
		return err
	}
	return check(s.Neg, s.NegStart, "neg")
}

// ProjectIntInto computes u = P·v for integer input into a caller-provided
// slice of length K, touching only the non-zero entries. This is the
// fastest integer projection kernel in the package: one gather-add per
// non-zero, no branches, no allocation.
//
//rpbeat:allocfree
func (s *SparseMatrix) ProjectIntInto(v []int32, u []int32) {
	if len(v) != s.D || len(u) != s.K {
		panic("rp: ProjectIntInto dimension mismatch")
	}
	for r := 0; r < s.K; r++ {
		var acc int32
		for _, c := range s.Pos[s.PosStart[r]:s.PosStart[r+1]] {
			acc += v[c]
		}
		for _, c := range s.Neg[s.NegStart[r]:s.NegStart[r+1]] {
			acc -= v[c]
		}
		u[r] = acc
	}
}

// ByteSize returns the storage footprint of the sparse representation:
// 4 bytes per non-zero index plus the two row-offset arrays. For an
// Achlioptas matrix (1/3 non-zero on average) this is ~4/3 bytes per
// element — larger than dense int8 (1 B/el) and packed (1/4 B/el); the
// sparse form buys speed, not memory (see DESIGN.md).
func (s *SparseMatrix) ByteSize() int {
	return 4 * (len(s.Pos) + len(s.Neg) + len(s.PosStart) + len(s.NegStart))
}
