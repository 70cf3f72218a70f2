// Package experiments contains one driver per table and figure of the
// paper's evaluation (Sec. IV), shared by cmd/rpbench and the repository's
// top-level benchmarks. Each driver returns a structured result plus a
// paper-style text rendering; EXPERIMENTS.md records paper-vs-measured for
// every one of them.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"rpbeat/internal/beatset"
	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/fixp"
	"rpbeat/internal/metrics"
	"rpbeat/internal/nfc"
	"rpbeat/internal/pca"
	"rpbeat/internal/scg"
)

// Options scales the experiments. The zero value reproduces the paper's
// settings at full dataset size.
type Options struct {
	Seed uint64
	// Scale shrinks the dataset (1 or 0 = full size, Table I composition).
	Scale float64
	// PopSize/Generations set the GA budget; defaults 20/30 (paper).
	PopSize     int
	Generations int
	// SCGIters bounds NFC training; default 120.
	SCGIters int
	// MinARR is the operating constraint; default 0.97 (paper).
	MinARR float64
	// Parallel bounds worker goroutines; default NumCPU.
	Parallel int
}

func (o Options) withDefaults() Options {
	if o.PopSize <= 0 {
		o.PopSize = 20
	}
	if o.Generations <= 0 {
		o.Generations = 30
	}
	if o.SCGIters <= 0 {
		o.SCGIters = 120
	}
	if o.MinARR <= 0 {
		o.MinARR = 0.97
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.NumCPU()
	}
	if o.Seed == 0 {
		o.Seed = 20130318 // DATE'13 conference date; any fixed value works
	}
	return o
}

func (o Options) coreConfig(kind core.Kind, k, downsample int) core.Config {
	return core.Config{
		Kind:        kind,
		Coeffs:      k,
		Downsample:  downsample,
		PopSize:     o.PopSize,
		Generations: o.Generations,
		SCGIters:    o.SCGIters,
		MinARR:      o.MinARR,
		Seed:        o.Seed ^ uint64(k)<<32 ^ uint64(downsample),
		Parallel:    o.Parallel,
	}
}

// Runner caches the dataset and trained models across experiments so that
// `rpbench -experiment all` does not retrain for every table.
type Runner struct {
	Opts Options

	mu     sync.Mutex
	ds     *beatset.Dataset
	models map[modelKey]trained
}

// modelKey is the geometry a cached model was trained for.
type modelKey struct {
	kind          core.Kind
	k, downsample int
}

type trained struct {
	m     *core.Model
	stats core.TrainStats
}

// NewRunner builds a runner with the given options.
func NewRunner(opts Options) *Runner {
	return &Runner{Opts: opts.withDefaults(), models: map[modelKey]trained{}}
}

// Dataset returns the (lazily built, cached) dataset.
func (r *Runner) Dataset() (*beatset.Dataset, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ds != nil {
		return r.ds, nil
	}
	ds, err := beatset.Build(beatset.Config{
		Seed:     r.Opts.Seed,
		Scale:    r.Opts.Scale,
		Parallel: r.Opts.Parallel,
	})
	if err != nil {
		return nil, err
	}
	r.ds = ds
	return ds, nil
}

// Model trains (or returns the cached) model of the given head and
// geometry.
func (r *Runner) Model(kind core.Kind, k, downsample int) (*core.Model, core.TrainStats, error) {
	key := modelKey{kind, k, downsample}
	r.mu.Lock()
	if t, ok := r.models[key]; ok {
		r.mu.Unlock()
		return t.m, t.stats, nil
	}
	r.mu.Unlock()
	ds, err := r.Dataset()
	if err != nil {
		return nil, core.TrainStats{}, err
	}
	m, stats, err := core.Train(ds, r.Opts.coreConfig(kind, k, downsample))
	if err != nil {
		return nil, stats, err
	}
	r.mu.Lock()
	r.models[key] = trained{m, stats}
	r.mu.Unlock()
	return m, stats, nil
}

// --- Table I ---

// TableIResult is the dataset composition (paper Table I).
type TableIResult struct {
	Train1, Train2, Test [3]int // N, L, V order follows ecgsyn.Class
}

// TableI reports the composition of the generated splits.
func (r *Runner) TableI() (TableIResult, error) {
	ds, err := r.Dataset()
	if err != nil {
		return TableIResult{}, err
	}
	return TableIResult{
		Train1: ds.CountByClass(ds.Train1),
		Train2: ds.CountByClass(ds.Train2),
		Test:   ds.CountByClass(ds.Test),
	}, nil
}

// Render formats the result like the paper's Table I (columns N, V, L).
func (t TableIResult) Render() string {
	var b strings.Builder
	row := func(name string, c [3]int) {
		n, l, v := c[ecgsyn.ClassN], c[ecgsyn.ClassL], c[ecgsyn.ClassV]
		fmt.Fprintf(&b, "%-16s %8d %7d %7d %8d\n", name, n, v, l, n+v+l)
	}
	b.WriteString("set                     N       V       L    Total\n")
	row("training set 1", t.Train1)
	row("training set 2", t.Train2)
	row("test set", t.Test)
	return b.String()
}

// --- Table II ---

// TableIIResult holds NDR (%) per coefficient count for the three settings.
type TableIIResult struct {
	Coeffs  []int
	NDRPC   []float64 // float pipeline, full-rate windows
	NDRWBSN []float64 // integer pipeline, 4x downsampled, linear MFs
	PCAPC   []float64 // PCA coefficients, float pipeline
	// AchievedARR records the ARR at each reported operating point.
	ARRPC, ARRWBSN, ARRPCA []float64
}

// TableII reproduces the coefficient-count study: NDR on the test set at a
// minimum ARR of 97%, for k in coeffs (paper: 8, 16, 32).
func (r *Runner) TableII(coeffs []int) (TableIIResult, error) {
	if len(coeffs) == 0 {
		coeffs = []int{8, 16, 32}
	}
	ds, err := r.Dataset()
	if err != nil {
		return TableIIResult{}, err
	}
	res := TableIIResult{Coeffs: coeffs}
	for _, k := range coeffs {
		// Row 1: RP + float NFC on full-rate windows.
		m, _, err := r.Model(core.KindFuzzy, k, 1)
		if err != nil {
			return res, fmt.Errorf("table2 k=%d float: %w", k, err)
		}
		pt, err := operatingPoint(m.Evaluate(ds, ds.Test), r.Opts.MinARR)
		if err != nil {
			return res, fmt.Errorf("table2 k=%d float: %w", k, err)
		}
		res.NDRPC = append(res.NDRPC, 100*pt.NDR)
		res.ARRPC = append(res.ARRPC, 100*pt.ARR)

		// Row 2: embedded pipeline (90 Hz windows, packed matrix, linear
		// MFs, integer arithmetic).
		mw, _, err := r.Model(core.KindFuzzy, k, 4)
		if err != nil {
			return res, fmt.Errorf("table2 k=%d wbsn: %w", k, err)
		}
		emb, err := mw.Quantize(fixp.MFLinear)
		if err != nil {
			return res, err
		}
		pt, err = operatingPoint(emb.Evaluate(ds, ds.Test), r.Opts.MinARR)
		if err != nil {
			return res, fmt.Errorf("table2 k=%d wbsn: %w", k, err)
		}
		res.NDRWBSN = append(res.NDRWBSN, 100*pt.NDR)
		res.ARRWBSN = append(res.ARRWBSN, 100*pt.ARR)

		// Row 3: PCA baseline (off-line, float).
		pt, err = r.pcaPoint(ds, k)
		if err != nil {
			return res, fmt.Errorf("table2 k=%d pca: %w", k, err)
		}
		res.PCAPC = append(res.PCAPC, 100*pt.NDR)
		res.ARRPCA = append(res.ARRPCA, 100*pt.ARR)
	}
	return res, nil
}

// operatingPoint finds the Table II operating point. When the ARR target is
// unreachable even at α = 1 (possible in the integer pipeline when fuzzy
// values collapse to zero for a few beats), it reports the best achievable
// point instead of failing — the rendered ARR column makes the shortfall
// visible.
func operatingPoint(evals []metrics.Eval, minARR float64) (metrics.Point, error) {
	pt, _, err := metrics.NDRAtARR(evals, minARR)
	if err != nil && pt.ARR > 0 {
		return pt, nil
	}
	return pt, err
}

// pcaPoint trains the NFC on PCA coefficients (fitted on training set 1)
// and evaluates the test split, mirroring the RP fitness path.
func (r *Runner) pcaPoint(ds *beatset.Dataset, k int) (metrics.Point, error) {
	train1 := windowsOf(ds, ds.Train1, 1)
	proj, err := pca.Fit(train1, k)
	if err != nil {
		return metrics.Point{}, err
	}
	project := func(idx []int) [][]float64 {
		u := make([][]float64, len(idx))
		for i, b := range idx {
			u[i] = proj.Project(ds.FloatWindow(b, 1))
		}
		return u
	}
	u1 := project(ds.Train1)
	labels1 := ds.Labels(ds.Train1)
	ts := &nfc.TrainingSet{U: u1, Label: labels1,
		Weight: [nfc.NumClasses]float64{nfc.IdxN: 1, nfc.IdxL: 3, nfc.IdxV: 3}}
	params := nfc.InitFromData(k, u1, labels1)
	optRes, err := scg.Minimize(scg.Objective(nfc.Objective(k, ts)), params.ToVector(),
		scg.Options{MaxIter: r.Opts.SCGIters})
	if err != nil {
		return metrics.Point{}, err
	}
	params.FromVector(optRes.X)

	labels := ds.Labels(ds.Test)
	evals := make([]metrics.Eval, len(ds.Test))
	for i, b := range ds.Test {
		f := params.Fuzzy(proj.Project(ds.FloatWindow(b, 1)))
		evals[i] = metrics.Eval{Label: labels[i], F: f}
	}
	return operatingPoint(evals, r.Opts.MinARR)
}

func windowsOf(ds *beatset.Dataset, idx []int, down int) [][]float64 {
	out := make([][]float64, len(idx))
	for i, b := range idx {
		out[i] = ds.FloatWindow(b, down)
	}
	return out
}

// Render formats the result like the paper's Table II.
func (t TableIIResult) Render() string {
	var b strings.Builder
	b.WriteString("coefficients ")
	for _, k := range t.Coeffs {
		fmt.Fprintf(&b, "%8d", k)
	}
	b.WriteString("\n")
	row := func(name string, vals []float64) {
		fmt.Fprintf(&b, "%-13s", name)
		for _, v := range vals {
			fmt.Fprintf(&b, "%8.2f", v)
		}
		b.WriteString("\n")
	}
	row("NDR-PC", t.NDRPC)
	row("NDR-WBSN", t.NDRWBSN)
	row("PCA-PC", t.PCAPC)
	b.WriteString("achieved ARR at the reported operating points:\n")
	row("  ARR-PC", t.ARRPC)
	row("  ARR-WBSN", t.ARRWBSN)
	row("  ARR-PCA", t.ARRPCA)
	return b.String()
}
