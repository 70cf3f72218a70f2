// Package rp implements Achlioptas random projections, the dimensionality
// reduction at the heart of Braojos et al. (DATE'13).
//
// A k×d projection matrix P has entries drawn i.i.d. from
//
//	+1 with probability 1/6
//	-1 with probability 1/6
//	 0 with probability 2/3
//
// (Achlioptas, JCSS 2003 — the sqrt(3) scale factor is dropped, as in the
// paper, because only ratios matter downstream and integer arithmetic is
// required on the sensor node). Projecting a beat window v of d samples
// yields u = P·v: each output coefficient is a signed sum of a subset of the
// input samples, computable with additions only.
//
// The matrix exists in three interchangeable representations, trading
// memory for projection speed (see DESIGN.md, "kernel memory layouts"):
//
//   - Matrix: dense int8, the training/mutation form;
//   - PackedMatrix: 2 bits per element, one quarter of an int8 matrix, the
//     encoding deployed on the WBSN (Sec. III-B of the paper);
//   - SparseMatrix: per-row non-zero column indices, the host-side hot-path
//     form — its projection touches only the ~1/3 non-zero entries.
//
// All three produce bit-identical integer projections (property-tested in
// sparse_test.go).
package rp

import (
	"errors"
	"fmt"

	"rpbeat/internal/rng"
)

// Matrix is a dense k×d ternary projection matrix with elements in {-1,0,+1}.
type Matrix struct {
	K, D int
	// El holds elements row-major: El[r*D+c].
	El []int8
}

// NewRandom draws a k×d Achlioptas matrix from r.
func NewRandom(r *rng.Rand, k, d int) *Matrix {
	m := &Matrix{K: k, D: d, El: make([]int8, k*d)}
	for i := range m.El {
		m.El[i] = r.Trit()
	}
	return m
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	el := make([]int8, len(m.El))
	copy(el, m.El)
	return &Matrix{K: m.K, D: m.D, El: el}
}

// Validate checks structural invariants.
func (m *Matrix) Validate() error {
	if m.K <= 0 || m.D <= 0 {
		return errors.New("rp: non-positive dimensions")
	}
	if len(m.El) != m.K*m.D {
		return fmt.Errorf("rp: element count %d != %d*%d", len(m.El), m.K, m.D)
	}
	for i, v := range m.El {
		if v < -1 || v > 1 {
			return fmt.Errorf("rp: element %d = %d outside {-1,0,1}", i, v)
		}
	}
	return nil
}

// Project computes u = P·v for a float input. len(v) must equal D.
func (m *Matrix) Project(v []float64) []float64 {
	if len(v) != m.D {
		panic(fmt.Sprintf("rp: input length %d != D=%d", len(v), m.D))
	}
	u := make([]float64, m.K)
	for r := 0; r < m.K; r++ {
		row := m.El[r*m.D : (r+1)*m.D]
		var s float64
		for c, e := range row {
			switch e {
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

// ProjectInt computes u = P·v for integer (ADC count) input, as executed on
// the WBSN: additions and subtractions only, no multiplications.
// Output coefficients fit comfortably in int32: |u_r| <= d * 2^11.
func (m *Matrix) ProjectInt(v []int32) []int32 {
	if len(v) != m.D {
		panic(fmt.Sprintf("rp: input length %d != D=%d", len(v), m.D))
	}
	u := make([]int32, m.K)
	for r := 0; r < m.K; r++ {
		row := m.El[r*m.D : (r+1)*m.D]
		var s int32
		for c, e := range row {
			switch e {
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

// ProjectIntInto is ProjectInt writing into a caller-provided slice of
// length K, avoiding allocation in the per-beat hot path.
//
//rpbeat:allocfree
//rpvet:allow deadcode -- reference: BenchmarkKernel_ProjectionDense_8x50 (DESIGN.md kernel memory layouts) and TestFusedKernelMatchesReference compare against it
func (m *Matrix) ProjectIntInto(v []int32, u []int32) {
	if len(v) != m.D || len(u) != m.K {
		panic("rp: ProjectIntInto dimension mismatch")
	}
	for r := 0; r < m.K; r++ {
		row := m.El[r*m.D : (r+1)*m.D]
		var s int32
		for c, e := range row {
			switch e {
			case 1:
				s += v[c]
			case -1:
				s -= v[c]
			}
		}
		u[r] = s
	}
}

// --- packed 2-bit representation ---

// PackedMatrix stores a ternary matrix at 2 bits per element, the encoding
// deployed on the WBSN (Sec. III-B: "1/4 of the memory with respect to a
// corresponding matrix of 8-bit values"). Encoding per element:
// 00 = 0, 01 = +1, 10 = -1 (11 unused).
type PackedMatrix struct {
	K, D int
	Bits []byte // ceil(K*D/4) bytes, row-major, 4 elements per byte
}

// Pack converts a dense matrix to the 2-bit representation.
func Pack(m *Matrix) *PackedMatrix {
	n := m.K * m.D
	p := &PackedMatrix{K: m.K, D: m.D, Bits: make([]byte, (n+3)/4)}
	for i, v := range m.El {
		var code byte
		switch v {
		case 1:
			code = 0b01
		case -1:
			code = 0b10
		}
		p.Bits[i/4] |= code << uint((i%4)*2)
	}
	return p
}

// Unpack expands the packed matrix back to dense form.
func (p *PackedMatrix) Unpack() (*Matrix, error) {
	m := &Matrix{K: p.K, D: p.D, El: make([]int8, p.K*p.D)}
	for i := range m.El {
		code := (p.Bits[i/4] >> uint((i%4)*2)) & 0b11
		switch code {
		case 0b00:
			m.El[i] = 0
		case 0b01:
			m.El[i] = 1
		case 0b10:
			m.El[i] = -1
		default:
			return nil, fmt.Errorf("rp: invalid packed code 11 at element %d", i)
		}
	}
	return m, nil
}

// ProjectInt computes u = P·v directly from the packed representation, as
// the embedded code does (decode 2 bits, add/subtract).
func (p *PackedMatrix) ProjectInt(v []int32) []int32 {
	if len(v) != p.D {
		panic(fmt.Sprintf("rp: input length %d != D=%d", len(v), p.D))
	}
	u := make([]int32, p.K)
	p.ProjectIntInto(v, u)
	return u
}

// packedDecode maps one packed byte to the four signs it encodes, in column
// order (lowest 2 bits first). The invalid code 11 decodes to 0.
// 256 entries × 4 int8 = 1 KB, shared by every projection.
var packedDecode = func() (t [256][4]int8) {
	sign := [4]int8{0b00: 0, 0b01: 1, 0b10: -1, 0b11: 0}
	for b := 0; b < 256; b++ {
		for j := 0; j < 4; j++ {
			t[b][j] = sign[(b>>(2*j))&0b11]
		}
	}
	return t
}()

// ProjectIntInto is ProjectInt into a caller-provided slice.
//
// The kernel decodes four columns per byte through the packedDecode lookup
// table and accumulates with branch-free sign multiplies, instead of
// extracting and switching on every 2-bit code. The node itself would still
// execute the addition-only loop the paper costs out; this host kernel is
// arithmetically identical (ternary signs make multiply and conditional
// add/subtract the same function), just restructured for pipelined CPUs.
//
//rpbeat:allocfree
func (p *PackedMatrix) ProjectIntInto(v []int32, u []int32) {
	if len(v) != p.D || len(u) != p.K {
		panic("rp: ProjectIntInto dimension mismatch")
	}
	for r := 0; r < p.K; r++ {
		var s int32
		i := r * p.D // element index into the packed stream
		end := i + p.D
		c := 0 // column index into v
		// Rows need not start on a byte boundary when D is not a multiple
		// of 4: peel the leading partial byte.
		if off := i & 3; off != 0 {
			dec := &packedDecode[p.Bits[i>>2]]
			for ; off < 4 && i < end; off, i, c = off+1, i+1, c+1 {
				s += int32(dec[off]) * v[c]
			}
		}
		// Full bytes: four columns per table lookup.
		for ; i+4 <= end; i, c = i+4, c+4 {
			dec := &packedDecode[p.Bits[i>>2]]
			s += int32(dec[0])*v[c] + int32(dec[1])*v[c+1] +
				int32(dec[2])*v[c+2] + int32(dec[3])*v[c+3]
		}
		// Trailing partial byte.
		if i < end {
			dec := &packedDecode[p.Bits[i>>2]]
			for off := 0; i < end; off, i, c = off+1, i+1, c+1 {
				s += int32(dec[off]) * v[c]
			}
		}
		u[r] = s
	}
}

// ByteSize returns the storage footprint of the packed representation.
func (p *PackedMatrix) ByteSize() int { return len(p.Bits) }
