package experiments

import (
	"fmt"
	"strings"

	"rpbeat/internal/core"
	"rpbeat/internal/fixp"
	"rpbeat/internal/metrics"
)

// Ablation studies beyond the paper's tables, covering the design choices
// DESIGN.md calls out: the value of the genetic search, the downsampling
// factor, and the 2-bit matrix packing (speed side measured in bench_test).

// GAAblationResult compares the best random projection (generation 0) with
// the GA-optimized one.
type GAAblationResult struct {
	InitialBest float64 // best fitness among the random initial population
	FinalBest   float64 // best fitness after the configured generations
	Generations int
}

// GAAblation quantifies what the genetic optimization adds over drawing
// random Achlioptas matrices (Sec. I: "even a rather simple optimization
// ... can find a proper projection").
func (r *Runner) GAAblation() (GAAblationResult, error) {
	_, stats, err := r.Model(core.KindFuzzy, 8, 4)
	if err != nil {
		return GAAblationResult{}, err
	}
	if len(stats.History) == 0 {
		return GAAblationResult{}, fmt.Errorf("experiments: no GA history recorded")
	}
	return GAAblationResult{
		InitialBest: stats.History[0],
		FinalBest:   stats.History[len(stats.History)-1],
		Generations: len(stats.History),
	}, nil
}

// Render formats the GA ablation.
func (g GAAblationResult) Render() string {
	return fmt.Sprintf("best NDR on training set 2 (at ARR constraint):\n"+
		"  random projections (best of initial population): %6.2f%%\n"+
		"  after %d GA generations:                          %6.2f%%\n"+
		"  improvement: %+.2f points\n",
		100*g.InitialBest, g.Generations, 100*g.FinalBest,
		100*(g.FinalBest-g.InitialBest))
}

// DownsampleResult is one row of the downsampling sweep.
type DownsampleResult struct {
	Factor      int
	InputDim    int
	NDR         float64 // % on the test set at the ARR constraint
	ARR         float64
	MatrixBytes int // packed projection matrix footprint
}

// DownsampleSweep measures the accuracy/memory trade-off of Sec. III-B's
// downsampling for k = 8 coefficients.
func (r *Runner) DownsampleSweep(factors []int) ([]DownsampleResult, error) {
	if len(factors) == 0 {
		factors = []int{1, 2, 4, 8}
	}
	ds, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	var out []DownsampleResult
	for _, f := range factors {
		m, _, err := r.Model(core.KindFuzzy, 8, f)
		if err != nil {
			return nil, fmt.Errorf("downsample %d: %w", f, err)
		}
		emb, err := m.Quantize(fixp.MFLinear)
		if err != nil {
			return nil, err
		}
		pt, err := operatingPoint(emb.Evaluate(ds, ds.Test), r.Opts.MinARR)
		if err != nil {
			return nil, fmt.Errorf("downsample %d: %w", f, err)
		}
		out = append(out, DownsampleResult{
			Factor:      f,
			InputDim:    m.D,
			NDR:         100 * pt.NDR,
			ARR:         100 * pt.ARR,
			MatrixBytes: emb.P.ByteSize(),
		})
	}
	return out, nil
}

// RenderDownsample formats the sweep.
func RenderDownsample(rows []DownsampleResult) string {
	var b strings.Builder
	b.WriteString("factor  rate(Hz)  samples  matrix(B)    NDR%%    ARR%%\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d  %8.0f  %7d  %9d  %6.2f  %6.2f\n",
			r.Factor, 360.0/float64(r.Factor), r.InputDim, r.MatrixBytes, r.NDR, r.ARR)
	}
	return b.String()
}

// AlphaSensitivity returns the operating curve of the deployed (linear-MF)
// classifier as α_test sweeps its range — the knob Sec. III-B exposes for
// post-deployment tuning.
func (r *Runner) AlphaSensitivity() ([]metrics.Point, error) {
	ds, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	m, _, err := r.Model(core.KindFuzzy, 8, 4)
	if err != nil {
		return nil, err
	}
	emb, err := m.Quantize(fixp.MFLinear)
	if err != nil {
		return nil, err
	}
	evals := emb.Evaluate(ds, ds.Test)
	return metrics.Curve(evals, alphaGrid()), nil
}

// RenderAlphaCurve formats an operating curve.
func RenderAlphaCurve(pts []metrics.Point) string {
	var b strings.Builder
	b.WriteString("  alpha     NDR%%     ARR%%\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%7.4f  %7.3f  %7.3f\n", p.Alpha, 100*p.NDR, 100*p.ARR)
	}
	return b.String()
}
