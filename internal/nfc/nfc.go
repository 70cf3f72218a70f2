// Package nfc implements the three-layer neuro-fuzzy classifier of Braojos
// et al. (DATE'13), in the high-precision (floating-point) form used during
// off-line training on the host.
//
// Layer 1 (membership): for each projected coefficient u_k and each class
// l ∈ {N, L, V}, a Gaussian membership function
//
//	µ_k,l(u_k) = exp(-(u_k - c_k,l)² / (2 σ_k,l²))
//
// Layer 2 (fuzzification): per-class product f_l = Π_k µ_k,l, computed in the
// log domain for numerical stability (the ratios between the f_l, which are
// all defuzzification uses, are preserved exactly).
//
// Layer 3 (defuzzification): with M1, M2 the two largest fuzzy values and
// S their sum over classes, the beat is assigned to the arg-max class if
// (M1 - M2) ≥ α·S and to the reject class U ("unknown") otherwise. U, V and
// L count as pathological; only N beats are discarded as normal.
//
// The quantized version deployed on the sensor node lives in internal/fixp.
package nfc

import (
	"errors"
	"fmt"
	"math"
)

// NumClasses is the number of morphology classes the NFC discriminates.
const NumClasses = 3

// Class indices within fuzzy-value vectors, matching ecgsyn.Class order.
const (
	IdxN = 0
	IdxL = 1
	IdxV = 2
)

// Decision is the defuzzification outcome.
type Decision uint8

const (
	DecideN Decision = iota // normal
	DecideL                 // left bundle branch block
	DecideV                 // premature ventricular contraction
	DecideU                 // unknown / rejected
)

// String returns the decision mnemonic.
func (d Decision) String() string {
	switch d {
	case DecideN:
		return "N"
	case DecideL:
		return "L"
	case DecideV:
		return "V"
	case DecideU:
		return "U"
	}
	return fmt.Sprintf("Decision(%d)", uint8(d))
}

// Abnormal reports whether the decision activates the detailed analysis:
// everything except a confident normal.
func (d Decision) Abnormal() bool { return d != DecideN }

// Params holds the membership-function parameters of an NFC with K inputs.
type Params struct {
	K     int
	C     []float64 // centers, K*NumClasses, layout C[k*NumClasses+l]
	Sigma []float64 // standard deviations, same layout, always > 0
}

// NewParams allocates a zero-initialized parameter set (σ = 1).
func NewParams(k int) *Params {
	p := &Params{K: k, C: make([]float64, k*NumClasses), Sigma: make([]float64, k*NumClasses)}
	for i := range p.Sigma {
		p.Sigma[i] = 1
	}
	return p
}

// Validate checks structural invariants.
func (p *Params) Validate() error {
	if p.K <= 0 {
		return errors.New("nfc: non-positive K")
	}
	if len(p.C) != p.K*NumClasses || len(p.Sigma) != p.K*NumClasses {
		return fmt.Errorf("nfc: parameter lengths %d/%d, want %d", len(p.C), len(p.Sigma), p.K*NumClasses)
	}
	for i, s := range p.Sigma {
		if !(s > 0) || math.IsInf(s, 0) || math.IsNaN(s) {
			return fmt.Errorf("nfc: sigma[%d] = %v not positive and finite", i, s)
		}
	}
	return nil
}

// LogFuzzy computes the log-domain fuzzy values log f_l for the projected
// coefficients u (len K), writing them into out.
func (p *Params) LogFuzzy(u []float64, out *[NumClasses]float64) {
	if len(u) != p.K {
		panic(fmt.Sprintf("nfc: input length %d != K=%d", len(u), p.K))
	}
	var z [NumClasses]float64
	for k := 0; k < p.K; k++ {
		base := k * NumClasses
		for l := 0; l < NumClasses; l++ {
			d := (u[k] - p.C[base+l]) / p.Sigma[base+l]
			z[l] -= 0.5 * d * d
		}
	}
	*out = z
}

// Fuzzy computes the fuzzy values f_l normalized so that max_l f_l = 1
// (a common rescaling of all classes, which leaves the defuzzification
// condition (M1-M2) ≥ α·S unchanged and avoids underflow for large K).
func (p *Params) Fuzzy(u []float64) [NumClasses]float64 {
	var z [NumClasses]float64
	p.LogFuzzy(u, &z)
	m := math.Max(z[0], math.Max(z[1], z[2]))
	var f [NumClasses]float64
	for l := range f {
		f[l] = math.Exp(z[l] - m)
	}
	return f
}

// Decide applies the defuzzification rule with coefficient alpha ∈ [0, 1]:
// assign to the arg-max class when the two largest fuzzy values are separated
// by at least alpha times their sum, otherwise reject as U.
func Decide(f [NumClasses]float64, alpha float64) Decision {
	best, second := 0, -1
	for l := 1; l < NumClasses; l++ {
		if f[l] > f[best] {
			best = l
		}
	}
	for l := 0; l < NumClasses; l++ {
		if l == best {
			continue
		}
		if second == -1 || f[l] > f[second] {
			second = l
		}
	}
	sum := f[0] + f[1] + f[2]
	if sum <= 0 || math.IsNaN(sum) {
		return DecideU
	}
	if f[best]-f[second] >= alpha*sum {
		switch best {
		case IdxN:
			return DecideN
		case IdxL:
			return DecideL
		default:
			return DecideV
		}
	}
	return DecideU
}

// Classify runs the full fuzzify + defuzzify pipeline.
func (p *Params) Classify(u []float64, alpha float64) Decision {
	return Decide(p.Fuzzy(u), alpha)
}

// --- parameter vector codec (for the SCG optimizer) ---

// ToVector serializes the parameters as [c..., log σ...]. Sigmas are
// optimized in the log domain so positivity is structural.
func (p *Params) ToVector() []float64 {
	n := p.K * NumClasses
	x := make([]float64, 2*n)
	copy(x, p.C)
	for i, s := range p.Sigma {
		x[n+i] = math.Log(s)
	}
	return x
}

// FromVector deserializes ToVector output into p.
func (p *Params) FromVector(x []float64) {
	n := p.K * NumClasses
	if len(x) != 2*n {
		panic(fmt.Sprintf("nfc: vector length %d, want %d", len(x), 2*n))
	}
	copy(p.C, x[:n])
	for i := 0; i < n; i++ {
		p.Sigma[i] = math.Exp(x[n+i])
	}
}

// InitFromData sets each membership function to the empirical mean and
// standard deviation of its class along its coefficient — the standard
// data-driven initialization before gradient refinement. Coefficients with
// no class samples keep (0, 1); degenerate deviations are floored to a small
// fraction of the coefficient's global spread.
func InitFromData(k int, u [][]float64, label []uint8) *Params {
	p := NewParams(k)
	var count [NumClasses]float64
	mean := make([]float64, k*NumClasses)
	m2 := make([]float64, k*NumClasses)
	for i, row := range u {
		l := int(label[i])
		count[l]++
		for kk := 0; kk < k; kk++ {
			idx := kk*NumClasses + l
			delta := row[kk] - mean[idx]
			mean[idx] += delta / count[l]
			m2[idx] += delta * (row[kk] - mean[idx])
		}
	}
	// Global spread per coefficient, for flooring sigmas.
	glob := make([]float64, k)
	for kk := 0; kk < k; kk++ {
		var mn, mx float64 = math.Inf(1), math.Inf(-1)
		for _, row := range u {
			if row[kk] < mn {
				mn = row[kk]
			}
			if row[kk] > mx {
				mx = row[kk]
			}
		}
		spread := mx - mn
		if !(spread > 0) || math.IsInf(spread, 0) {
			spread = 1
		}
		glob[kk] = spread
	}
	for kk := 0; kk < k; kk++ {
		for l := 0; l < NumClasses; l++ {
			idx := kk*NumClasses + l
			if count[l] > 1 {
				p.C[idx] = mean[idx]
				sd := math.Sqrt(m2[idx] / (count[l] - 1))
				floor := 0.02 * glob[kk]
				if sd < floor {
					sd = floor
				}
				p.Sigma[idx] = sd
			} else {
				p.C[idx] = 0
				p.Sigma[idx] = glob[kk]
			}
		}
	}
	return p
}
