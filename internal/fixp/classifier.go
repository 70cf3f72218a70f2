package fixp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"rpbeat/internal/nfc"
)

// NumClasses mirrors nfc.NumClasses for the integer pipeline.
const NumClasses = nfc.NumClasses

// AlphaQ15 is the fixed-point representation of the defuzzification
// coefficient α ∈ [0, 1]: α·2^15.
type AlphaQ15 uint16

// AlphaToQ15 converts a float α to Q15, clamping to [0, 1].
func AlphaToQ15(a float64) AlphaQ15 {
	if a <= 0 {
		return 0
	}
	if a >= 1 {
		return 1 << 15
	}
	return AlphaQ15(math.Round(a * (1 << 15)))
}

// Float converts back to a float α.
//
//rpvet:allow deadcode -- reference: TestDefuzzifyMatchesFloatRule runs the float decision rule at the quantized alpha
func (a AlphaQ15) Float() float64 { return float64(a) / (1 << 15) }

// Classifier is the integer neuro-fuzzy classifier deployed on the node:
// K coefficients × NumClasses quantized membership functions plus the
// shift-normalized product fuzzifier and the division-free defuzzifier.
type Classifier struct {
	K  int
	MF []IntMF // layout MF[k*NumClasses+l]
}

// Quantize converts trained float parameters into an integer classifier with
// the requested membership shape. Centers and sigmas must be expressed in
// the units of the integer projected coefficients (they are, when training
// ran on float64 conversions of ADC counts).
func Quantize(p *nfc.Params, kind MFKind) (*Classifier, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Classifier{K: p.K, MF: make([]IntMF, p.K*NumClasses)}
	for i := range c.MF {
		c.MF[i] = NewIntMF(kind, p.C[i], p.Sigma[i])
		if err := c.MF[i].validate(); err != nil {
			return nil, fmt.Errorf("fixp: MF %d: %w", i, err)
		}
	}
	return c, nil
}

// Grades evaluates all membership functions for the projected coefficients
// u (len K), writing K*NumClasses grades into out.
//
//rpbeat:allocfree
func (c *Classifier) Grades(u []int32, out []uint16) {
	if len(u) != c.K || len(out) != c.K*NumClasses {
		panic("fixp: Grades dimension mismatch")
	}
	for k := 0; k < c.K; k++ {
		base := k * NumClasses
		for l := 0; l < NumClasses; l++ {
			out[base+l] = c.MF[base+l].Eval(u[k])
		}
	}
}

// Fuzzify runs the paper's overflow-free product fuzzification over the
// grade matrix (layout grades[k*NumClasses+l]) and returns the three fuzzy
// accumulators. The procedure (Sec. III-B):
//
//  1. multiply the grades of the first two coefficients per class into
//     32-bit accumulators;
//  2. left-shift all three accumulators by the largest common amount that
//     overflows none of them, then drop the low 16 bits;
//  3. multiply in the next coefficient's grade and repeat.
//
// Because every step applies the same scaling to all classes, the ratios
// between the f_l — the only thing defuzzification consumes — are preserved.
func Fuzzify(k int, grades []uint16) [NumClasses]uint32 {
	if len(grades) != k*NumClasses {
		panic("fixp: Fuzzify dimension mismatch")
	}
	var f [NumClasses]uint32
	if k == 0 {
		return f
	}
	for l := 0; l < NumClasses; l++ {
		f[l] = uint32(grades[l])
	}
	if k == 1 {
		return f
	}
	for step := 1; step < k; step++ {
		base := step * NumClasses
		for l := 0; l < NumClasses; l++ {
			f[l] = renorm16(f[l]) * uint32(grades[base+l])
		}
		if step == k-1 {
			break
		}
		// Common renormalization: shift all classes left until the largest
		// uses the full 32 bits, then keep the top 16 for the next product.
		maxv := f[0]
		if f[1] > maxv {
			maxv = f[1]
		}
		if f[2] > maxv {
			maxv = f[2]
		}
		if maxv == 0 {
			return f // all classes dead: stays dead, beat will be rejected
		}
		sh := uint(bits.LeadingZeros32(maxv))
		for l := 0; l < NumClasses; l++ {
			f[l] = (f[l] << sh) >> 16
		}
	}
	return f
}

// renorm16 is the identity for values already below 2^16; values above
// cannot occur by construction (accumulators are shifted down before each
// multiplication), but the guard keeps the function total.
func renorm16(v uint32) uint32 {
	if v > 0xffff {
		return 0xffff
	}
	return v
}

// Defuzzify applies the division-free decision rule: with M1 ≥ M2 the two
// largest fuzzy values and S their total, assign arg-max iff
// (M1-M2)·2^15 ≥ α_Q15·S, else reject as U. All products fit in uint64.
func Defuzzify(f [NumClasses]uint32, alpha AlphaQ15) nfc.Decision {
	best := 0
	for l := 1; l < NumClasses; l++ {
		if f[l] > f[best] {
			best = l
		}
	}
	second := -1
	for l := 0; l < NumClasses; l++ {
		if l == best {
			continue
		}
		if second == -1 || f[l] > f[second] {
			second = l
		}
	}
	sum := uint64(f[0]) + uint64(f[1]) + uint64(f[2])
	if sum == 0 {
		return nfc.DecideU
	}
	diff := uint64(f[best] - f[second])
	if diff<<15 >= uint64(alpha)*sum {
		switch best {
		case nfc.IdxN:
			return nfc.DecideN
		case nfc.IdxL:
			return nfc.DecideL
		default:
			return nfc.DecideV
		}
	}
	return nfc.DecideU
}

// GradeBufLen returns the length of the grade scratch buffer ClassifyInto
// and FuzzyValues require (K*NumClasses), so callers can preallocate without
// duplicating the layout rule.
func (c *Classifier) GradeBufLen() int { return c.K * NumClasses }

// ClassifyInto runs the complete integer pipeline on projected
// coefficients, with a caller-provided grade buffer of length
// GradeBufLen(), for the allocation-free hot path.
//
//rpbeat:allocfree
func (c *Classifier) ClassifyInto(u []int32, alpha AlphaQ15, grades []uint16) nfc.Decision {
	c.Grades(u, grades)
	return Defuzzify(Fuzzify(c.K, grades), alpha)
}

// FuzzyValues exposes the integer fuzzy accumulators (for experiments that
// sweep α over precomputed values).
func (c *Classifier) FuzzyValues(u []int32, grades []uint16) [NumClasses]uint32 {
	c.Grades(u, grades)
	return Fuzzify(c.K, grades)
}

// TableBytes returns the ROM footprint of the MF parameter tables: per MF a
// center (4 B), an S (4 B) and two Q16 slopes (8 B) — what the node stores
// besides code.
func (c *Classifier) TableBytes() int { return len(c.MF) * 16 }

// Validate checks structural invariants.
func (c *Classifier) Validate() error {
	if c.K <= 0 {
		return errors.New("fixp: non-positive K")
	}
	if len(c.MF) != c.K*NumClasses {
		return fmt.Errorf("fixp: MF count %d, want %d", len(c.MF), c.K*NumClasses)
	}
	for i := range c.MF {
		if err := c.MF[i].validate(); err != nil {
			return fmt.Errorf("fixp: MF %d: %w", i, err)
		}
	}
	return nil
}
