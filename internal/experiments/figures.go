package experiments

import (
	"fmt"
	"strings"

	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/energy"
	"rpbeat/internal/fixp"
	"rpbeat/internal/metrics"
	"rpbeat/internal/nfc"
	"rpbeat/internal/platform"
)

// --- Figure 4: membership-function shapes ---

// Figure4Point is one abscissa of the MF-shape comparison.
type Figure4Point struct {
	X          float64 // distance from the center in units of sigma
	Gaussian   float64 // grades normalized to [0, 1]
	Linear     float64
	Triangular float64
}

// Figure4 samples the three membership shapes over [-5σ, 0] (the paper plots
// [-4.7σ, 0], i.e. [-2S, 0]), for a representative sigma.
func Figure4() []Figure4Point {
	const sigma = 1000.0
	gauss := fixp.NewIntMF(fixp.MFGaussianRef, 0, sigma)
	lin := fixp.NewIntMF(fixp.MFLinear, 0, sigma)
	tri := fixp.NewIntMF(fixp.MFTriangular, 0, sigma)
	var pts []Figure4Point
	for xs := -5.0; xs <= 0.001; xs += 0.1 {
		x := int32(xs * sigma)
		pts = append(pts, Figure4Point{
			X:          xs,
			Gaussian:   float64(gauss.Eval(x)) / fixp.GradeMax,
			Linear:     float64(lin.Eval(x)) / fixp.GradeMax,
			Triangular: float64(tri.Eval(x)) / fixp.GradeMax,
		})
	}
	return pts
}

// RenderFigure4 prints the series as aligned columns (CSV-like, suitable for
// replotting).
func RenderFigure4(pts []Figure4Point) string {
	var b strings.Builder
	b.WriteString("x/sigma   gaussian    linear  triangular\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%7.2f %10.4f %9.4f %11.4f\n", p.X, p.Gaussian, p.Linear, p.Triangular)
	}
	return b.String()
}

// --- Figure 5: NDR/ARR Pareto fronts per MF shape ---

// Figure5Result holds one Pareto front per membership shape, plus the
// binary-embedding head's front as the A/B axis: the same α sweep over the
// popcount head's similarities, so the speed-for-accuracy trade is a
// measured curve next to the fuzzy shapes.
type Figure5Result struct {
	Gaussian   []metrics.Point
	Linear     []metrics.Point
	Triangular []metrics.Point
	Bitemb     []metrics.Point
}

// Figure5 reproduces the MF-linearization study: one WBSN-configured model
// (8 coefficients, 50 samples at 90 Hz), quantized with each membership
// shape, α_test swept over the test set, Pareto fronts extracted.
func (r *Runner) Figure5() (Figure5Result, error) {
	var res Figure5Result
	ds, err := r.Dataset()
	if err != nil {
		return res, err
	}
	m, _, err := r.Model(core.KindFuzzy, 8, 4)
	if err != nil {
		return res, err
	}
	alphas := alphaGrid()
	front := func(kind fixp.MFKind) ([]metrics.Point, error) {
		emb, err := m.Quantize(kind)
		if err != nil {
			return nil, err
		}
		evals := emb.Evaluate(ds, ds.Test)
		return metrics.Pareto(metrics.Curve(evals, alphas)), nil
	}
	// The gaussian curve is the PC (floating-point) implementation, as in
	// the paper; the approximated shapes run through the integer pipeline.
	res.Gaussian = metrics.Pareto(metrics.Curve(m.Evaluate(ds, ds.Test), alphas))
	if res.Linear, err = front(fixp.MFLinear); err != nil {
		return res, err
	}
	if res.Triangular, err = front(fixp.MFTriangular); err != nil {
		return res, err
	}
	// The bitemb front: same geometry, packed 1-bit head.
	bm, _, err := r.Model(core.KindBitemb, 8, 4)
	if err != nil {
		return res, err
	}
	be, err := bm.Quantize(fixp.MFLinear)
	if err != nil {
		return res, err
	}
	res.Bitemb = metrics.Pareto(metrics.Curve(be.Evaluate(ds, ds.Test), alphas))
	return res, nil
}

// alphaGrid spans the defuzzification coefficient densely near 0 (where
// high-NDR operating points live) and geometrically toward 1 (the margins
// (M1-M2)/S of decisively classified beats cluster near 1, so the high-ARR
// end of the trade-off needs 1-10^-k resolution).
func alphaGrid() []float64 {
	var g []float64
	for a := 0.0; a < 0.02; a += 0.0005 {
		g = append(g, a)
	}
	for a := 0.02; a < 0.2; a += 0.005 {
		g = append(g, a)
	}
	for a := 0.2; a < 0.95; a += 0.025 {
		g = append(g, a)
	}
	for eps := 0.05; eps > 1e-12; eps /= 2 {
		g = append(g, 1-eps)
	}
	g = append(g, 1)
	return g
}

// Render formats the three fronts as aligned columns.
func (f Figure5Result) Render() string {
	var b strings.Builder
	dump := func(name string, pts []metrics.Point) {
		fmt.Fprintf(&b, "# %s front (ARR%%  NDR%%  alpha)\n", name)
		for _, p := range pts {
			fmt.Fprintf(&b, "%8.3f %8.3f %8.4f\n", 100*p.ARR, 100*p.NDR, p.Alpha)
		}
	}
	dump("gaussian", f.Gaussian)
	dump("linear", f.Linear)
	dump("triangular", f.Triangular)
	dump("bitemb", f.Bitemb)
	return b.String()
}

// NDRAtARROnFront interpolates a front at the requested ARR level (the
// paper's reading of Fig. 5: "it is possible to correctly recognize 98.5%
// of abnormal beats, with a NDR of 87%").
func NDRAtARROnFront(front []metrics.Point, arr float64) (float64, bool) {
	best := -1.0
	for _, p := range front {
		if p.ARR >= arr && p.NDR > best {
			best = p.NDR
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// --- Table III: code size and duty cycle ---

// TableIIIResult pairs the modeled rows with the measured activation rate.
type TableIIIResult struct {
	Rows           []platform.StageReport
	ActivationRate float64 // fraction of test beats flagged abnormal
	MemoryOK       bool
}

// TableIII reproduces the run-time/memory evaluation: the activation rate
// comes from the trained embedded classifier on the test set (at its ARR ≥
// 97% operating point), the duty cycles from the icyflex cost model, and
// the classifier data bytes from the actual artifact.
func (r *Runner) TableIII() (TableIIIResult, error) {
	var res TableIIIResult
	ds, err := r.Dataset()
	if err != nil {
		return res, err
	}
	m, _, err := r.Model(core.KindFuzzy, 8, 4)
	if err != nil {
		return res, err
	}
	emb, err := m.Quantize(fixp.MFLinear)
	if err != nil {
		return res, err
	}
	evals := emb.Evaluate(ds, ds.Test)
	// Use the best achievable point when the target ARR cannot be met
	// exactly (the activation rate is what Table III needs).
	alpha, _, err := metrics.MinAlphaForARR(evals, r.Opts.MinARR)
	if err != nil {
		return res, err
	}
	_, conf := metrics.Evaluate(evals, alpha)
	total := conf.Total()
	activated := total - conf[0][nfc.DecideN] // everything not discarded as N
	res.ActivationRate = float64(activated) / float64(total)

	res.Rows = platform.TableIII(platform.SystemParams{
		Fs:             360,
		BeatsPerSec:    1.2,
		ActivationRate: res.ActivationRate,
		K:              emb.K,
		D:              emb.D,
		ClassifierData: emb.MemoryBytes(),
		Leads:          ecgsyn.NumLeads,
		Model:          platform.Icyflex(),
	})
	res.MemoryOK = platform.FitsRAM(res.Rows[3].CodeBytes)
	return res, nil
}

// Render formats the rows like the paper's Table III.
func (t TableIIIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %12s   %s\n", "", "Code Size", "Duty Cycle")
	for _, r := range t.Rows {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "(delineation activated for %.1f%% of beats; fits 96 KB RAM: %v)\n",
		100*t.ActivationRate, t.MemoryOK)
	return b.String()
}

// --- Sec. IV-E: energy ---

// EnergyResult wraps the Sec. IV-E report with its inputs.
type EnergyResult struct {
	Report         energy.Report
	Traffic        energy.TrafficCounts
	DutyGated      float64
	DutyAlwaysOn   float64
	ActivationRate float64
}

// Energy reproduces the energy-efficiency analysis: traffic counts from the
// classifier's decisions over the test set, compute duty cycles from Table
// III, combined via the documented budget shares.
func (r *Runner) Energy() (EnergyResult, error) {
	var res EnergyResult
	ds, err := r.Dataset()
	if err != nil {
		return res, err
	}
	m, _, err := r.Model(core.KindFuzzy, 8, 4)
	if err != nil {
		return res, err
	}
	emb, err := m.Quantize(fixp.MFLinear)
	if err != nil {
		return res, err
	}
	evals := emb.Evaluate(ds, ds.Test)
	alpha, _, err := metrics.MinAlphaForARR(evals, r.Opts.MinARR)
	if err != nil {
		return res, err
	}
	_, conf := metrics.Evaluate(evals, alpha)
	total := conf.Total()
	discarded := conf[0][nfc.DecideN]
	res.Traffic = energy.TrafficCounts{
		NormalDiscarded: discarded,
		FullReports:     total - discarded,
	}

	t3, err := r.TableIII()
	if err != nil {
		return res, err
	}
	res.DutyGated = t3.Rows[3].Duty
	res.DutyAlwaysOn = t3.Rows[2].Duty
	res.ActivationRate = t3.ActivationRate

	// Stream duration: beats at the nominal 1.2 beats/s.
	seconds := float64(total) / 1.2
	res.Report, err = energy.Analyze(energy.Params{
		Traffic:       res.Traffic,
		StreamSeconds: seconds,
		DutyGated:     res.DutyGated,
		DutyAlwaysOn:  res.DutyAlwaysOn,
	})
	return res, err
}

// Render summarizes the energy findings.
func (e EnergyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "beats: %d (%d reported peak-only, %d full fiducials)\n",
		e.Traffic.Total(), e.Traffic.NormalDiscarded, e.Traffic.FullReports)
	fmt.Fprintf(&b, "wireless energy reduction:   %5.1f%%  (paper: 68%%)\n", 100*e.Report.RadioReduction)
	fmt.Fprintf(&b, "bio-signal analysis savings: %5.1f%%  (paper: 63%%)\n", 100*e.Report.ComputeReduction)
	fmt.Fprintf(&b, "estimated total node energy: %5.1f%%  (paper: ~23%%)\n", 100*e.Report.TotalReduction)
	return b.String()
}
