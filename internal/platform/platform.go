// Package platform models execution of the WBSN pipeline on the IcyHeart
// SoC (icyflex-class low-power core, 6 MHz clock, 96 KB RAM) to reproduce
// the run-time and memory evaluation of Table III.
//
// Substitution note (see DESIGN.md): the paper measures real silicon; this
// repository cannot, so each DSP stage is costed with an explicit
// instruction-level model — abstract RISC operation counts per sample/beat,
// derived from the structure of the embedded algorithms (naive O(L)
// morphology as fits a node without dynamic allocation, à trous filter
// banks, packed-matrix projection), multiplied by a per-operation cycle
// table for a single-issue integer core. Duty cycle = cycles consumed per
// second of signal / clock rate. Code sizes combine modeled instruction
// footprints (documented constants) with the *actual* table sizes of the
// trained classifier (packed projection matrix + MF tables).
package platform

import (
	"fmt"
)

// OpCount tallies abstract RISC operations.
type OpCount struct {
	Add    uint64 // integer add/sub/compare
	Mul    uint64
	Div    uint64
	Load   uint64
	Store  uint64
	Branch uint64
	Shift  uint64
}

// Plus returns o + p.
func (o OpCount) Plus(p OpCount) OpCount {
	return OpCount{
		Add:    o.Add + p.Add,
		Mul:    o.Mul + p.Mul,
		Div:    o.Div + p.Div,
		Load:   o.Load + p.Load,
		Store:  o.Store + p.Store,
		Branch: o.Branch + p.Branch,
		Shift:  o.Shift + p.Shift,
	}
}

// Times returns o scaled by an integer factor.
func (o OpCount) Times(n uint64) OpCount {
	return OpCount{
		Add:    o.Add * n,
		Mul:    o.Mul * n,
		Div:    o.Div * n,
		Load:   o.Load * n,
		Store:  o.Store * n,
		Branch: o.Branch * n,
		Shift:  o.Shift * n,
	}
}

// CycleModel assigns per-operation cycle costs for a target core.
type CycleModel struct {
	Name    string
	ClockHz float64
	Add     float64
	Mul     float64
	Div     float64
	Load    float64
	Store   float64
	Branch  float64
	Shift   float64
}

// Icyflex returns the cost table for the IcyHeart's icyflex-class core:
// single-cycle ALU and MAC, two-cycle memory accesses, iterative division,
// 6 MHz clock.
func Icyflex() CycleModel {
	return CycleModel{
		Name:    "icyflex@6MHz",
		ClockHz: 6e6,
		Add:     1, Mul: 1, Div: 35,
		Load: 2, Store: 2, Branch: 2, Shift: 1,
	}
}

// Cycles converts an operation count to core cycles.
func (c CycleModel) Cycles(o OpCount) float64 {
	return float64(o.Add)*c.Add + float64(o.Mul)*c.Mul + float64(o.Div)*c.Div +
		float64(o.Load)*c.Load + float64(o.Store)*c.Store +
		float64(o.Branch)*c.Branch + float64(o.Shift)*c.Shift
}

// DutyCycle is the fraction of the core's cycles consumed by opsPerSecond.
func (c CycleModel) DutyCycle(opsPerSecond OpCount) float64 {
	return c.Cycles(opsPerSecond) / c.ClockHz
}

// --- per-stage operation models (ops per second of signal per lead unless
// noted). The formulas mirror the embedded implementations: morphology is
// the naive O(L) sliding min/max (no dynamic structures on the node), the
// wavelet bank is the 4-tap/2-tap à trous pair, the classifier is the
// packed-projection + linear-MF integer pipeline of internal/fixp. ---

// morphPassOps is one erosion or dilation pass with a structuring element of
// L samples: per output sample, L loads and L-1 comparisons plus loop
// overhead.
func morphPassOps(fs float64, l int) OpCount {
	perSample := OpCount{
		Load:   uint64(l) + 1,
		Add:    uint64(l), // comparisons + index arithmetic
		Branch: uint64(l),
		Store:  1,
	}
	return perSample.Times(uint64(fs))
}

// FilterOps models the morphological front end of one lead for one second:
// noise suppression (opening-closing and closing-opening with a 3-sample
// element: 8 passes) and baseline estimation/removal (opening with 0.2 s,
// closing with 0.3 s elements: 4 passes, plus the subtraction pass).
func FilterOps(fs float64) OpCount {
	small := 3
	openL := int(0.2 * fs)
	closeL := int(0.3 * fs)
	ops := OpCount{}
	for i := 0; i < 8; i++ {
		ops = ops.Plus(morphPassOps(fs, small))
	}
	ops = ops.Plus(morphPassOps(fs, openL).Times(2))  // opening: erode+dilate
	ops = ops.Plus(morphPassOps(fs, closeL).Times(2)) // closing: dilate+erode
	// averaging and subtraction passes
	ops = ops.Plus(OpCount{Add: 2, Load: 2, Store: 1, Shift: 1}.Times(uint64(fs)))
	ops = ops.Plus(OpCount{Add: 1, Load: 2, Store: 1}.Times(uint64(fs)))
	return ops
}

// PeakOps models the 4-scale à trous decomposition plus modulus-maxima
// bookkeeping for one second of one lead.
func PeakOps(fs float64) OpCount {
	perScalePerSample := OpCount{
		// lowpass h = [1 3 3 1]/8: 4 loads, 3 adds, 2 shifts (x3 = x<<1+x), 1 store
		// highpass g = 2[1 -1]: 2 loads, 1 add, 1 shift, 1 store
		Load: 6, Add: 4, Shift: 3, Store: 2,
	}
	ops := perScalePerSample.Times(uint64(4 * fs))
	// extrema scan + thresholds on three scales
	ops = ops.Plus(OpCount{Load: 3, Add: 4, Branch: 3}.Times(uint64(3 * fs)))
	return ops
}

// ClassifierOps models the integer RP+NFC pipeline for beatsPerSec beats:
// packed-matrix projection (2-bit decode + add per element), linear MF
// evaluation, shift-normalized fuzzification and defuzzification.
func ClassifierOps(k, d int, beatsPerSec float64) OpCount {
	perBeat := OpCount{}
	// projection: per matrix element, decode (load amortized 1/4, shift,
	// mask, branch) and conditional add
	el := uint64(k * d)
	perBeat = perBeat.Plus(OpCount{
		Load:   el / 4,
		Shift:  el,
		Add:    el, // mask+add
		Branch: el,
	})
	// MF evaluation: per (k, class): |d| compare chain + slope multiply
	mf := uint64(k * 3)
	perBeat = perBeat.Plus(OpCount{Load: mf * 2, Add: mf * 3, Mul: mf, Shift: mf, Branch: mf * 2})
	// fuzzification: per coefficient, 3 multiplies + common shift
	perBeat = perBeat.Plus(OpCount{Mul: uint64(k * 3), Shift: uint64(k * 6), Add: uint64(k * 3)}.Plus(OpCount{Branch: uint64(k)}))
	// defuzzification: compares and one 32x16 cross-multiply pair
	perBeat = perBeat.Plus(OpCount{Add: 8, Mul: 2, Shift: 2, Branch: 4})
	// one beat per beatsPerSec: scale by 1e3 to keep integer precision
	return scaleFrac(perBeat, beatsPerSec)
}

// DelineationOps models multi-lead MMD delineation for one second,
// following the reference embedded implementation: each lead is transformed
// with MMD at three wave scales (QRS ~21, P ~41, T ~73 samples of flat
// structuring element, naive O(L) morphology), the per-scale responses are
// fused across leads, and per-beat fiducial searches run on the fused
// transforms.
func DelineationOps(fs float64, leads int, beatsPerSec float64) OpCount {
	ops := OpCount{}
	// Per-lead MMD at three scales: a dilation and an erosion pass each.
	for _, l := range []int{21, 41, 73} {
		ops = ops.Plus(morphPassOps(fs, l).Times(2 * uint64(leads)))
	}
	// MMD combination per scale per lead: 2 loads, 3 adds, 1 div, 1 store.
	ops = ops.Plus(OpCount{Load: 2, Add: 3, Div: 1, Store: 1}.Times(uint64(3*leads) * uint64(fs)))
	// Cross-lead fusion of the three scale responses.
	fusion := OpCount{Mul: uint64(leads), Add: uint64(leads) + 4, Load: uint64(leads), Store: 1}
	ops = ops.Plus(fusion.Times(uint64(3 * fs)))
	// Per-beat searches: 9 fiducials x ~0.25 s windows on the fused MMDs.
	window := uint64(0.25 * fs)
	perBeat := OpCount{Load: 9 * window, Add: 9 * window, Branch: 9 * window}
	ops = ops.Plus(scaleFrac(perBeat, beatsPerSec))
	return ops
}

// scaleFrac scales an OpCount by a fractional factor (rounding each bucket).
func scaleFrac(o OpCount, f float64) OpCount {
	r := func(v uint64) uint64 { return uint64(float64(v)*f + 0.5) }
	return OpCount{
		Add: r(o.Add), Mul: r(o.Mul), Div: r(o.Div),
		Load: r(o.Load), Store: r(o.Store), Branch: r(o.Branch), Shift: r(o.Shift),
	}
}

// --- code size model ---

// Modeled code footprints (bytes) of each embedded stage. These are
// documented model constants — instruction-count estimates for an icyflex-
// class ISA — not measurements; they reproduce the code-size accounting of
// Table III, where the paper reports its standalone binaries. Classifier
// *data* (projection matrix + MF tables) is measured from the actual trained
// artifact and added separately.
const (
	CodeClassifier  = 860   // projection loop, MF eval, fuzzify, defuzzify
	CodeFilter      = 11200 // morphology kernels, buffers management
	CodePeak        = 17400 // à trous bank, maxima pairing, search-back
	CodeDelineation = 17700 // MMD kernels, fiducial searches, lead fusion
)

// StageReport is one row of the Table III reproduction.
type StageReport struct {
	Name      string
	CodeBytes int     // code + constant tables
	Duty      float64 // fraction of the 6 MHz budget
}

// String formats the row like the paper's table.
func (s StageReport) String() string {
	duty := fmt.Sprintf("%.2f", s.Duty)
	if s.Duty < 0.01 {
		duty = "< 0.01"
	}
	return fmt.Sprintf("%-32s %8.2f KB   %s", s.Name, float64(s.CodeBytes)/1024, duty)
}

// SystemParams feeds the Table III computation.
type SystemParams struct {
	Fs             float64 // sampling rate (360)
	BeatsPerSec    float64 // average heart rate in beats/s (~1.2 on MIT-BIH)
	ActivationRate float64 // fraction of beats flagged abnormal by the classifier
	K, D           int     // classifier geometry (8 x 50 in the paper's Table III)
	ClassifierData int     // measured bytes of packed matrix + MF tables
	Leads          int     // delineation leads (3)
	Model          CycleModel
}

// TableIII computes the four rows of the paper's Table III under the cost
// model: the RP classifier alone, sub-system (1) = classifier + 1-lead
// filtering + peak detection, sub-system (2) = always-on 3-lead delineation
// (with its own filtering), and the proposed system (3) = sub-system (1)
// plus delineation activated only on abnormal beats.
func TableIII(p SystemParams) []StageReport {
	m := p.Model
	clsOps := ClassifierOps(p.K, p.D, p.BeatsPerSec)
	filter1 := FilterOps(p.Fs)
	peak := PeakOps(p.Fs)
	delin := DelineationOps(p.Fs, p.Leads, p.BeatsPerSec)
	filter3 := filter1.Times(uint64(p.Leads))

	dutyCls := m.DutyCycle(clsOps)
	dutySub1 := m.DutyCycle(clsOps.Plus(filter1).Plus(peak))
	dutySub2 := m.DutyCycle(filter3.Plus(peak).Plus(delin))
	// System (3): sub-system (1) always on; the delineation side (including
	// the two extra filtered leads) only runs for the activated fraction.
	extra := filter1.Times(uint64(p.Leads - 1)).Plus(delin)
	dutySys3 := dutySub1 + p.ActivationRate*m.DutyCycle(extra)

	codeSub1 := CodeClassifier + p.ClassifierData + CodeFilter + CodePeak
	codeSub2 := CodeFilter + CodePeak + CodeDelineation
	return []StageReport{
		{Name: "RP-classifier", CodeBytes: CodeClassifier + p.ClassifierData, Duty: dutyCls},
		{Name: "RP + filtering + peak detection (1)", CodeBytes: codeSub1, Duty: dutySub1},
		{Name: "Multi-lead delineation (2)", CodeBytes: codeSub2, Duty: dutySub2},
		{Name: "Proposed system (3)", CodeBytes: codeSub1 + codeSub2, Duty: dutySys3},
	}
}

// RAMBudgetBytes is the IcyHeart's embedded RAM (96 KB).
const RAMBudgetBytes = 96 * 1024

// FitsRAM reports whether the given total footprint fits the SoC memory.
func FitsRAM(bytes int) bool { return bytes <= RAMBudgetBytes }
