// Package core implements the paper's primary contribution: the complete
// design methodology for a real-time, lightweight heartbeat classifier based
// on random projections and a neuro-fuzzy classifier (Braojos, Ansaloni,
// Atienza — DATE 2013).
//
// The two-step training of Sec. III-A runs off-line in floating point:
//
//  1. an initial population of random projection matrices is drawn;
//  2. for each candidate matrix, the classifier head is fitted on *training
//     set 1* (projected beats);
//  3. the candidate's fitness is the score of that head on *training set
//     2*: the NDR at the smallest defuzzification coefficient α that
//     achieves a minimum ARR (97% in the paper);
//  4. a genetic algorithm (population 20, 30 generations) evolves the
//     matrices by crossover and mutation toward higher-performance
//     projections.
//
// Config.Kind picks the head. The paper's neuro-fuzzy classifier (KindFuzzy)
// searches Achlioptas matrices and trains its membership functions with
// scaled conjugate gradient; the binary embedding head (KindBitemb) searches
// very sparse matrices and derives its thresholds, prototypes and radii in
// closed form (bitemb.Fit). The loop around them is the same.
//
// The trained (P, head, α_train) triple is the Model. Quantize converts it
// to the embedded form of Sec. III-B (packed matrix, linearized integer MFs,
// Q15 α) that internal/fixp executes with integer arithmetic only.
package core

import (
	"errors"
	"fmt"
	"runtime"

	"rpbeat/internal/beatset"
	"rpbeat/internal/bitemb"
	"rpbeat/internal/ga"
	"rpbeat/internal/metrics"
	"rpbeat/internal/nfc"
	"rpbeat/internal/rng"
	"rpbeat/internal/rp"
	"rpbeat/internal/scg"
)

// Config parameterizes the training methodology. Zero values select the
// paper's settings where it states them.
type Config struct {
	// Kind is the classifier head to train; the zero value is the paper's
	// neuro-fuzzy head.
	Kind Kind
	// Coeffs is k, the number of projected coefficients; default 8.
	Coeffs int
	// Downsample reduces the beat window rate before projection: 1 for the
	// PC (float) configuration, 4 for the WBSN configuration (90 Hz,
	// 50-sample windows). Default 1.
	Downsample int
	// PopSize and Generations configure the GA; defaults 20 and 30 (paper).
	PopSize     int
	Generations int
	// MutationRate is the per-element resampling probability; default 0.02.
	MutationRate float64
	// MinARR is the abnormal-recognition constraint used to pick α_train;
	// default 0.97 (paper).
	MinARR float64
	// SCGIters bounds membership-function training; default 120. The
	// fuzzy head only: the binary head is fitted in closed form.
	SCGIters int
	// AbnormalWeight is the loss weight of classes L and V during MF
	// training, implementing the paper's unbalancing toward abnormal
	// recall; default 3. The fuzzy head only.
	AbnormalWeight float64
	// Seed drives matrix generation and the GA.
	Seed uint64
	// Parallel bounds concurrent fitness evaluations; default NumCPU.
	Parallel int
}

func (c Config) withDefaults() Config {
	if c.Coeffs <= 0 {
		c.Coeffs = 8
	}
	if c.Downsample <= 0 {
		c.Downsample = 1
	}
	if c.PopSize <= 0 {
		c.PopSize = 20
	}
	if c.Generations <= 0 {
		c.Generations = 30
	}
	if c.MutationRate <= 0 {
		c.MutationRate = 0.02
	}
	if c.MinARR <= 0 {
		c.MinARR = 0.97
	}
	if c.SCGIters <= 0 {
		c.SCGIters = 120
	}
	if c.AbnormalWeight <= 0 {
		c.AbnormalWeight = 3
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.NumCPU()
	}
	return c
}

// Model is a trained float-level classifier: projection matrix, one head
// (membership functions for KindFuzzy, binary embedding parameters for
// KindBitemb) and the training-time operating point.
type Model struct {
	Kind       Kind
	K          int // projected coefficients
	D          int // input dimensionality (after downsampling)
	Downsample int // sampling-rate divisor relative to 360 Hz
	P          *rp.Matrix
	MF         *nfc.Params    // fuzzy head; nil for KindBitemb
	Bit        *bitemb.Params // binary head; nil for KindFuzzy
	AlphaTrain float64        // α chosen on training set 2 for MinARR
	MinARR     float64
}

// Validate checks structural consistency.
func (m *Model) Validate() error {
	if m.P == nil {
		return errors.New("core: model missing projection")
	}
	if err := m.P.Validate(); err != nil {
		return err
	}
	if m.P.D != m.D {
		return fmt.Errorf("core: inconsistent D (%d vs P %d)", m.D, m.P.D)
	}
	switch m.Kind {
	case KindFuzzy:
		if m.MF == nil {
			return errors.New("core: fuzzy model missing membership functions")
		}
		if m.Bit != nil {
			return errors.New("core: fuzzy model carries a binary embedding head")
		}
		if err := m.MF.Validate(); err != nil {
			return err
		}
		if m.P.K != m.K || m.MF.K != m.K {
			return fmt.Errorf("core: inconsistent K (%d, P %d, MF %d)", m.K, m.P.K, m.MF.K)
		}
	case KindBitemb:
		if m.Bit == nil {
			return errors.New("core: bitemb model missing embedding parameters")
		}
		if m.MF != nil {
			return errors.New("core: bitemb model carries membership functions")
		}
		if err := m.Bit.Validate(); err != nil {
			return err
		}
		if m.P.K != m.K || m.Bit.K != m.K {
			return fmt.Errorf("core: inconsistent K (%d, P %d, bitemb %d)", m.K, m.P.K, m.Bit.K)
		}
	default:
		return fmt.Errorf("core: unknown model kind %d", m.Kind)
	}
	return nil
}

// TrainStats reports what the two-step training did.
type TrainStats struct {
	BestFitness  float64   // NDR on training set 2 at the ARR constraint
	History      []float64 // best fitness per GA generation
	FitnessEvals int
	AlphaTrain   float64
	Train2Point  metrics.Point // operating point of the final model on training set 2
}

// Train runs the full methodology on the dataset's standard splits, for
// the head cfg.Kind selects.
func Train(ds *beatset.Dataset, cfg Config) (*Model, TrainStats, error) {
	c := cfg.withDefaults()
	var stats TrainStats
	if len(ds.Train1) == 0 || len(ds.Train2) == 0 {
		return nil, stats, errors.New("core: empty training split")
	}
	h, err := newHead(ds, c)
	if err != nil {
		return nil, stats, err
	}

	fitness := func(P *rp.Matrix) float64 {
		evals, err := h.fit(&Model{P: P})
		if err != nil {
			return -2
		}
		alpha, achieved, err := metrics.MinAlphaForARR(evals, c.MinARR)
		if err != nil {
			return -2
		}
		p, _ := metrics.Evaluate(evals, alpha)
		if !achieved {
			// Rank unachievable candidates below all achievable ones, by
			// how close they get to the ARR target.
			return -1 + (p.ARR - c.MinARR)
		}
		return p.NDR
	}

	d := ds.Dim(c.Downsample)
	seedRng := rng.New(c.Seed)
	initial := make([]*rp.Matrix, c.PopSize)
	for i := range initial {
		initial[i] = h.newMatrix(seedRng.Split(), c.Coeffs, d)
	}

	gaRes, err := ga.Run(initial, ga.Config[*rp.Matrix]{
		Generations:  c.Generations,
		MutationRate: c.MutationRate,
		Fitness:      fitness,
		Crossover:    crossoverMatrices,
		Mutate: func(r *rng.Rand, m *rp.Matrix, rate float64) *rp.Matrix {
			return mutateMatrix(r, m, rate, h.element)
		},
		Parallel: c.Parallel,
		Seed:     seedRng.Uint64(),
	})
	if err != nil {
		return nil, stats, err
	}
	stats.BestFitness = gaRes.BestFitness
	stats.History = gaRes.History
	stats.FitnessEvals = gaRes.Evaluations

	// Final model: refit the head for the winning projection and fix
	// α_train on training set 2.
	m := &Model{
		Kind:       c.Kind,
		K:          c.Coeffs,
		D:          d,
		Downsample: c.Downsample,
		P:          gaRes.Best,
		MinARR:     c.MinARR,
	}
	evals, err := h.fit(m)
	if err != nil {
		return nil, stats, err
	}
	alpha, achieved, err := metrics.MinAlphaForARR(evals, c.MinARR)
	if err != nil {
		return nil, stats, err
	}
	if !achieved {
		return nil, stats, fmt.Errorf("core: final model cannot reach ARR %.3f on training set 2", c.MinARR)
	}
	stats.AlphaTrain = alpha
	stats.Train2Point, _ = metrics.Evaluate(evals, alpha)
	m.AlphaTrain = alpha
	return m, stats, m.Validate()
}

// head is what the two-step training needs of one classifier kind: the
// projection family the GA draws matrices and mutated elements from, and
// fit, which fits the head for m.P on training set 1 into m and returns the
// head's evaluations on training set 2.
type head struct {
	newMatrix func(r *rng.Rand, k, d int) *rp.Matrix
	element   func(r *rng.Rand, d int) int8
	fit       func(m *Model) ([]metrics.Eval, error)
}

// newHead builds the head of kind c.Kind over the dataset's training
// splits. The fuzzy head trains its NFC by SCG on float windows; the binary
// head fits on integer projections, the domain the node executes in, so its
// thresholds carry no float/integer calibration gap.
func newHead(ds *beatset.Dataset, c Config) (head, error) {
	labels1, labels2 := ds.Labels(ds.Train1), ds.Labels(ds.Train2)
	switch c.Kind {
	case KindFuzzy:
		u1, u2 := windows(ds, ds.Train1, c.Downsample), windows(ds, ds.Train2, c.Downsample)
		return head{
			newMatrix: rp.NewRandom,
			element:   trit,
			fit: func(m *Model) ([]metrics.Eval, error) {
				mf, err := fitNFC(m.P, u1, labels1, c)
				if err != nil {
					return nil, err
				}
				m.MF = mf
				return evalParams(m.P, mf, u2, labels2), nil
			},
		}, nil
	case KindBitemb:
		v1, v2 := intWindows(ds, ds.Train1, c.Downsample), intWindows(ds, ds.Train2, c.Downsample)
		return head{
			newMatrix: rp.NewVerySparse,
			element:   (*rng.Rand).LogSparseTrit,
			fit: func(m *Model) ([]metrics.Eval, error) {
				bit, err := bitemb.Fit(projectInt(m.P, v1), labels1, m.P.K)
				if err != nil {
					return nil, err
				}
				m.Bit = bit
				return bit.Evals(projectInt(m.P, v2), labels2), nil
			},
		}, nil
	}
	return head{}, fmt.Errorf("core: unknown model kind %d", c.Kind)
}

// windows extracts the float windows of the indexed beats.
func windows(ds *beatset.Dataset, idx []int, downsample int) [][]float64 {
	out := make([][]float64, len(idx))
	for i, b := range idx {
		out[i] = ds.FloatWindow(b, downsample)
	}
	return out
}

// intWindows extracts the integer windows of the indexed beats.
func intWindows(ds *beatset.Dataset, idx []int, downsample int) [][]int32 {
	out := make([][]int32, len(idx))
	for i, b := range idx {
		out[i] = ds.IntWindow(b, downsample)
	}
	return out
}

// projectInt projects every integer window through P.
func projectInt(P *rp.Matrix, wins [][]int32) [][]int32 {
	out := make([][]int32, len(wins))
	for i, w := range wins {
		out[i] = P.ProjectInt(w)
	}
	return out
}

// fitNFC projects the training beats with P, initializes membership
// functions from per-class statistics and refines them with SCG.
func fitNFC(P *rp.Matrix, u [][]float64, labels []uint8, c Config) (*nfc.Params, error) {
	proj := make([][]float64, len(u))
	for i, row := range u {
		proj[i] = P.Project(row)
	}
	ts := &nfc.TrainingSet{
		U:     proj,
		Label: labels,
		Weight: [nfc.NumClasses]float64{
			nfc.IdxN: 1, nfc.IdxL: c.AbnormalWeight, nfc.IdxV: c.AbnormalWeight,
		},
	}
	if err := ts.Validate(P.K); err != nil {
		return nil, err
	}
	params := nfc.InitFromData(P.K, proj, labels)
	res, err := scg.Minimize(scg.Objective(nfc.Objective(P.K, ts)), params.ToVector(),
		scg.Options{MaxIter: c.SCGIters})
	if err != nil {
		return nil, err
	}
	params.FromVector(res.X)
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return params, nil
}

// evalParams computes per-beat fuzzy values of (P, params) over the beats.
func evalParams(P *rp.Matrix, params *nfc.Params, u [][]float64, labels []uint8) []metrics.Eval {
	evals := make([]metrics.Eval, len(u))
	for i, row := range u {
		f := params.Fuzzy(P.Project(row))
		evals[i] = metrics.Eval{Label: labels[i], F: f}
	}
	return evals
}

// Evaluate runs the float pipeline of the model over the indexed beats and
// returns per-beat fuzzy values for metric computation.
func (m *Model) Evaluate(ds *beatset.Dataset, idx []int) []metrics.Eval {
	u := windows(ds, idx, m.Downsample)
	return evalParams(m.P, m.MF, u, ds.Labels(idx))
}

// Classify runs the float pipeline on one beat window (already downsampled
// to length D) at the given α.
//
//rpvet:allow deadcode -- float reference: BenchmarkKernel_FloatClassifierPerBeat prices the float pipeline against the integer heads
func (m *Model) Classify(window []float64, alpha float64) nfc.Decision {
	return m.MF.Classify(m.P.Project(window), alpha)
}

// --- GA operators over projection matrices ---

// crossoverMatrices performs uniform row crossover: each output coefficient
// (matrix row) is inherited whole from one parent, preserving the sample
// subsets that make a coefficient informative.
func crossoverMatrices(r *rng.Rand, a, b *rp.Matrix) *rp.Matrix {
	child := a.Clone()
	for row := 0; row < child.K; row++ {
		if r.Float64() < 0.5 {
			copy(child.El[row*child.D:(row+1)*child.D], b.El[row*b.D:(row+1)*b.D])
		}
	}
	return child
}

// trit draws one Achlioptas element, whatever the matrix width.
func trit(r *rng.Rand, _ int) int8 { return r.Trit() }

// mutateMatrix resamples each element with the configured probability from
// element, the head's element distribution, keeping the matrix in its
// family.
func mutateMatrix(r *rng.Rand, m *rp.Matrix, rate float64, element func(r *rng.Rand, d int) int8) *rp.Matrix {
	out := m.Clone()
	for i := range out.El {
		if r.Float64() < rate {
			out.El[i] = element(r, out.D)
		}
	}
	return out
}
