// Package fixp implements the resource-constrained (integer) version of the
// RP + neuro-fuzzy classifier, per Sec. III-B of Braojos et al. (DATE'13):
//
//   - membership functions linearized to the range [0, 2^16-1] with four
//     segments (Fig. 4), plus the simpler triangular variant the paper
//     compares against and a quantized-Gaussian reference;
//   - product fuzzification kept inside 32 bits by left-shifting the three
//     per-class accumulators by a common amount and discarding the low
//     16 bits after each multiplication, which preserves the ratios between
//     classes exactly as required by the defuzzification rule;
//   - division-free defuzzification: (M1 - M2) ≥ α·S is evaluated with a
//     Q15 fixed-point α and a 64-bit-free cross-multiplication.
//
// Everything in the classification path uses integer arithmetic only and no
// exponentials, matching what runs on the 6 MHz IcyHeart node.
package fixp

import (
	"errors"
	"fmt"
	"math"
)

// GradeMax is the full-scale membership grade (2^16 - 1).
const GradeMax = 65535

// SOverSigma is the ratio S/σ used by the linearization: the paper defines
// S = 2.35σ (half the full width at ~5% of the Gaussian peak).
const SOverSigma = 2.35

// g1 is the grade of the Gaussian at distance S = 2.35σ from the center,
// scaled to GradeMax: the knee between the two linear segments of Fig. 4.
var g1 = uint16(math.Round(GradeMax * math.Exp(-SOverSigma*SOverSigma/2)))

// MFKind selects the membership-function shape of an integer classifier.
type MFKind uint8

const (
	// MFLinear is the paper's 4-segment linear approximation (Fig. 4):
	//
	//	|x-c| >= 4S          -> 0
	//	4S > |x-c| >= 2S     -> 1
	//	2S > |x-c| >= S      -> line from g1 down to 1
	//	S  > |x-c|           -> line from GradeMax down to g1
	//
	// The tiny constant tail keeps the grade positive over a wide range, so
	// fuzzy products rarely collapse to zero (the property Sec. III-B calls
	// out as desirable).
	MFLinear MFKind = iota
	// MFTriangular is the simpler triangular interpolation of Fig. 4: a line
	// from GradeMax at the center to 0 at |x-c| = 2S, zero beyond.
	MFTriangular
	// MFGaussianRef evaluates the true Gaussian and rounds it to the integer
	// grade range. It is not implementable on the node (needs exp) and
	// exists as the accuracy reference in Figs. 4 and 5.
	MFGaussianRef
)

// String names the MF kind.
func (k MFKind) String() string {
	switch k {
	case MFLinear:
		return "linear"
	case MFTriangular:
		return "triangular"
	case MFGaussianRef:
		return "gaussian"
	}
	return fmt.Sprintf("MFKind(%d)", uint8(k))
}

// IntMF is one quantized membership function. The slopes are precomputed
// Q16 fixed-point multipliers so evaluation needs only compare/multiply/
// shift — no division at run time.
type IntMF struct {
	Kind MFKind
	C    int32 // center, in projected-coefficient units
	S    int32 // 2.35σ, in the same units, always >= 1

	// Linear segments (MFLinear): grade = GradeMax - (slope2*d)>>16 for
	// d < S; grade = g1 - (slope1*(d-S))>>16 for S <= d < 2S.
	Slope1 uint32
	Slope2 uint32
	// Triangular slope (MFTriangular): grade = GradeMax - (slopeT*d)>>16,
	// hitting zero at d = 2S.
	SlopeT uint32

	// SigmaF keeps the float sigma for the Gaussian reference kind.
	SigmaF float64
}

// NewIntMF quantizes a Gaussian membership function (center c, deviation
// sigma, both in projected-coefficient units) into the requested integer
// shape.
func NewIntMF(kind MFKind, c, sigma float64) IntMF {
	s := int32(math.Round(SOverSigma * sigma))
	if s < 1 {
		s = 1
	}
	m := IntMF{Kind: kind, C: int32(math.Round(c)), S: s, SigmaF: sigma}
	// Build-time divisions are fine: they run on the host during
	// quantization, never on the node.
	m.Slope1 = uint32((uint64(g1-1) << 16) / uint64(s))
	m.Slope2 = uint32((uint64(GradeMax-uint32(g1)) << 16) / uint64(s))
	m.SlopeT = uint32((uint64(GradeMax) << 16) / uint64(2*s))
	return m
}

// Eval returns the membership grade of x in [0, GradeMax].
func (m *IntMF) Eval(x int32) uint16 {
	d := int64(x) - int64(m.C)
	if d < 0 {
		d = -d
	}
	s := int64(m.S)
	switch m.Kind {
	case MFLinear:
		switch {
		case d >= 4*s:
			return 0
		case d >= 2*s:
			return 1
		case d >= s:
			dec := (uint64(m.Slope1) * uint64(d-s)) >> 16
			g := int64(g1) - int64(dec)
			if g < 1 {
				g = 1
			}
			return uint16(g)
		default:
			dec := (uint64(m.Slope2) * uint64(d)) >> 16
			g := int64(GradeMax) - int64(dec)
			if g < int64(g1) {
				g = int64(g1)
			}
			return uint16(g)
		}
	case MFTriangular:
		if d >= 2*s {
			return 0
		}
		dec := (uint64(m.SlopeT) * uint64(d)) >> 16
		g := int64(GradeMax) - int64(dec)
		if g < 0 {
			g = 0
		}
		return uint16(g)
	case MFGaussianRef:
		sigma := m.SigmaF
		if sigma <= 0 {
			sigma = float64(m.S) / SOverSigma
		}
		z := float64(d) / sigma
		return uint16(math.Round(GradeMax * math.Exp(-z*z/2)))
	}
	return 0
}

// EvalFloat returns the ideal (float Gaussian) grade scaled to GradeMax,
// used to measure the linearization error (Fig. 4).
//
//rpvet:allow deadcode -- reference: TestLinearMFApproximatesGaussian measures the linearization error against it
func (m *IntMF) EvalFloat(x int32) float64 {
	sigma := m.SigmaF
	if sigma <= 0 {
		sigma = float64(m.S) / SOverSigma
	}
	d := float64(x) - float64(m.C)
	return GradeMax * math.Exp(-d*d/(2*sigma*sigma))
}

// validate checks invariants of a quantized MF.
func (m *IntMF) validate() error {
	if m.S < 1 {
		return errors.New("fixp: S must be >= 1")
	}
	if m.Kind > MFGaussianRef {
		return fmt.Errorf("fixp: unknown MF kind %d", m.Kind)
	}
	return nil
}
