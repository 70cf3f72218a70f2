package experiments

import (
	"strings"
	"testing"

	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/metrics"
)

// testRunner is shared across tests: tiny dataset, tiny GA, so the whole
// file runs in seconds while still exercising every driver end to end.
var shared *Runner

func testRunner(t testing.TB) *Runner {
	t.Helper()
	if shared == nil {
		shared = NewRunner(Options{
			Seed:        5,
			Scale:       0.03,
			PopSize:     6,
			Generations: 3,
			SCGIters:    60,
			MinARR:      0.95,
		})
	}
	return shared
}

func TestTableIComposition(t *testing.T) {
	r := testRunner(t)
	res, err := r.TableI()
	if err != nil {
		t.Fatal(err)
	}
	// Scaled composition: train1 = ceil(150*0.03) = 5 per class.
	for cl, n := range res.Train1 {
		if n != 5 {
			t.Fatalf("train1 class %d count %d, want 5", cl, n)
		}
	}
	if res.Test[ecgsyn.ClassN] == 0 || res.Test[ecgsyn.ClassL] == 0 || res.Test[ecgsyn.ClassV] == 0 {
		t.Fatalf("test composition %v has empty classes", res.Test)
	}
	out := res.Render()
	if !strings.Contains(out, "training set 1") || !strings.Contains(out, "test set") {
		t.Fatalf("render missing rows:\n%s", out)
	}
}

func TestTableIIReducedScale(t *testing.T) {
	r := testRunner(t)
	res, err := r.TableII([]int{8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NDRPC) != 1 || len(res.NDRWBSN) != 1 || len(res.PCAPC) != 1 {
		t.Fatalf("row lengths wrong: %+v", res)
	}
	// All three settings must reach a usable operating point; the paper's
	// regime is NDR > 90 at full scale, we accept > 70 at 3% scale with a
	// tiny GA.
	for name, v := range map[string]float64{
		"NDR-PC": res.NDRPC[0], "NDR-WBSN": res.NDRWBSN[0], "PCA-PC": res.PCAPC[0],
	} {
		if v < 70 || v > 100 {
			t.Fatalf("%s = %.2f%%, out of plausible range", name, v)
		}
	}
	for _, arr := range [][]float64{res.ARRPC, res.ARRWBSN, res.ARRPCA} {
		if arr[0] < 95 {
			t.Fatalf("ARR %.2f below the constraint", arr[0])
		}
	}
	out := res.Render()
	if !strings.Contains(out, "NDR-WBSN") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFigure4Shapes(t *testing.T) {
	pts := Figure4()
	if len(pts) < 40 {
		t.Fatalf("only %d points", len(pts))
	}
	last := pts[len(pts)-1]
	if last.X != 0 && last.X > 0.01 {
		t.Fatalf("last point at %v, want 0", last.X)
	}
	if last.Gaussian < 0.99 || last.Linear < 0.99 || last.Triangular < 0.99 {
		t.Fatalf("all shapes must peak at the center: %+v", last)
	}
	// Beyond 2S = 4.7σ the triangular MF is exactly 0 while the linear
	// approximation keeps its small positive tail (out to 4S) — the
	// property Sec. III-B credits for the linear MF's robustness.
	first := pts[0] // x = -5σ
	if first.Triangular != 0 {
		t.Fatalf("triangular MF at -5σ = %v, want 0", first.Triangular)
	}
	if first.Linear <= 0 {
		t.Fatalf("linear MF tail at -5σ = %v, want > 0", first.Linear)
	}
	// In the mid range the linear shape hugs the Gaussian from above/below
	// while the triangle overshoots it badly (visible in Fig. 4).
	var at3 Figure4Point
	for _, p := range pts {
		if p.X > -3.05 && p.X < -2.95 {
			at3 = p
		}
	}
	if gapTri, gapLin := at3.Triangular-at3.Gaussian, at3.Linear-at3.Gaussian; gapTri < 10*gapLin {
		t.Fatalf("triangle should deviate far more than linear at -3σ: tri %+.4f vs lin %+.4f", gapTri, gapLin)
	}
	if s := RenderFigure4(pts); !strings.Contains(s, "gaussian") {
		t.Fatal("render header missing")
	}
}

func TestFigure5Fronts(t *testing.T) {
	r := testRunner(t)
	res, err := r.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	for name, front := range map[string][]metrics.Point{
		"gaussian": res.Gaussian, "linear": res.Linear, "triangular": res.Triangular,
	} {
		if len(front) == 0 {
			t.Fatalf("%s front empty", name)
		}
	}
	// The linear front must track the gaussian front much more closely than
	// the triangular one at high ARR — the qualitative claim of Fig. 5.
	// (The probe sits at 97% here: at this tiny test scale with a 3-
	// generation GA the highest ARR levels are data-limited; the full-scale
	// run in EXPERIMENTS.md probes 98.5% as the paper does.)
	const arr = 0.97
	g, okG := NDRAtARROnFront(res.Gaussian, arr)
	l, okL := NDRAtARROnFront(res.Linear, arr)
	tr, okT := NDRAtARROnFront(res.Triangular, arr)
	if !okG || !okL {
		t.Fatalf("gaussian/linear fronts do not reach ARR %.3f", arr)
	}
	if gap := g - l; gap > 0.15 {
		t.Fatalf("linear NDR %.3f too far below gaussian %.3f", l, g)
	}
	if okT && tr > l+0.02 {
		t.Fatalf("triangular (%.3f) should not beat linear (%.3f) at high ARR", tr, l)
	}
	if s := res.Render(); !strings.Contains(s, "triangular front") {
		t.Fatal("render missing front")
	}
}

func TestTableIIIReduced(t *testing.T) {
	r := testRunner(t)
	res, err := r.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.ActivationRate <= 0 || res.ActivationRate >= 1 {
		t.Fatalf("activation rate %v", res.ActivationRate)
	}
	if !res.MemoryOK {
		t.Fatal("system must fit the 96 KB budget")
	}
	if res.Rows[0].Duty >= 0.01 {
		t.Fatalf("classifier duty %v", res.Rows[0].Duty)
	}
	if !(res.Rows[3].Duty < res.Rows[2].Duty) {
		t.Fatal("gated system must beat always-on delineation")
	}
	if s := res.Render(); !strings.Contains(s, "Proposed system") {
		t.Fatalf("render:\n%s", s)
	}
}

func TestEnergyReduced(t *testing.T) {
	r := testRunner(t)
	res, err := r.Energy()
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.RadioReduction < 0.4 {
		t.Fatalf("radio reduction %.3f too small", res.Report.RadioReduction)
	}
	if res.Report.ComputeReduction < 0.3 {
		t.Fatalf("compute reduction %.3f too small", res.Report.ComputeReduction)
	}
	if res.Report.TotalReduction < 0.10 || res.Report.TotalReduction > 0.34 {
		t.Fatalf("total reduction %.3f outside plausible band", res.Report.TotalReduction)
	}
	if s := res.Render(); !strings.Contains(s, "wireless energy reduction") {
		t.Fatalf("render:\n%s", s)
	}
}

func TestGAAblation(t *testing.T) {
	r := testRunner(t)
	res, err := r.GAAblation()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalBest < res.InitialBest {
		t.Fatalf("GA regressed: %v -> %v", res.InitialBest, res.FinalBest)
	}
	if s := res.Render(); !strings.Contains(s, "GA generations") {
		t.Fatalf("render:\n%s", s)
	}
}

func TestDownsampleSweep(t *testing.T) {
	r := testRunner(t)
	rows, err := r.DownsampleSweep([]int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].InputDim != 50 || rows[1].InputDim != 25 {
		t.Fatalf("dims %d/%d", rows[0].InputDim, rows[1].InputDim)
	}
	if rows[1].MatrixBytes >= rows[0].MatrixBytes {
		t.Fatal("higher downsampling must shrink the matrix")
	}
	if s := RenderDownsample(rows); !strings.Contains(s, "matrix(B)") {
		t.Fatalf("render:\n%s", s)
	}
}

func TestAlphaSensitivity(t *testing.T) {
	r := testRunner(t)
	pts, err := r.AlphaSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 50 {
		t.Fatalf("%d points", len(pts))
	}
	// Monotone trade-off along the grid.
	for i := 1; i < len(pts); i++ {
		if pts[i].ARR < pts[i-1].ARR-1e-9 {
			t.Fatalf("ARR not monotone at %d", i)
		}
		if pts[i].NDR > pts[i-1].NDR+1e-9 {
			t.Fatalf("NDR not antitone at %d", i)
		}
	}
	if s := RenderAlphaCurve(pts[:3]); !strings.Contains(s, "alpha") {
		t.Fatal("render header missing")
	}
}

func TestRunnerCachesModels(t *testing.T) {
	r := testRunner(t)
	a, _, err := r.Model(core.KindFuzzy, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := r.Model(core.KindFuzzy, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("model not cached")
	}
}

func TestHeadComparisonReduced(t *testing.T) {
	r := testRunner(t)
	res, err := r.HeadComparison([]int{8}, 3, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fuzzy) != 1 || len(res.Bitemb) != 1 {
		t.Fatalf("row counts: %d fuzzy, %d bitemb", len(res.Fuzzy), len(res.Bitemb))
	}
	fz, bt := res.Fuzzy[0], res.Bitemb[0]
	if fz.K != 8 || bt.K != 8 {
		t.Fatalf("k: fuzzy %d bitemb %d", fz.K, bt.K)
	}
	// Both heads must reach a usable record-level operating point even at
	// this tiny training scale.
	for name, row := range map[string]HeadRow{"fuzzy": fz, "bitemb": bt} {
		if row.NDR < 0.5 || row.NDR > 1 {
			t.Fatalf("%s NDR %.3f out of plausible range", name, row.NDR)
		}
		if row.ARR < 0.6 || row.ARR > 1 {
			t.Fatalf("%s ARR %.3f out of plausible range", name, row.ARR)
		}
	}
	// The point of the binary head: the model artifact must be much
	// smaller (1 bit/coefficient + thresholds vs float64 MF tables).
	if bt.ModelBytes*2 >= fz.ModelBytes {
		t.Fatalf("bitemb model %d B not meaningfully smaller than fuzzy %d B",
			bt.ModelBytes, fz.ModelBytes)
	}
	if bt.TableBytes >= fz.TableBytes {
		t.Fatalf("bitemb tables %d B not smaller than fuzzy %d B", bt.TableBytes, fz.TableBytes)
	}
	s := res.Render()
	if !strings.Contains(s, "bitemb") || !strings.Contains(s, "fuzzy") {
		t.Fatalf("render:\n%s", s)
	}
}

func TestFigure5BitembFront(t *testing.T) {
	r := testRunner(t)
	res, err := r.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bitemb) == 0 {
		t.Fatal("bitemb front empty")
	}
	if _, ok := NDRAtARROnFront(res.Bitemb, 0.9); !ok {
		t.Fatalf("bitemb front never reaches ARR 0.9: %+v", res.Bitemb)
	}
	if s := res.Render(); !strings.Contains(s, "bitemb front") {
		t.Fatal("render missing bitemb front")
	}
}

func TestRecordLevelEndToEnd(t *testing.T) {
	r := testRunner(t)
	res, err := r.RecordLevel(3, 120)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 3 {
		t.Fatalf("records %d", res.Records)
	}
	if res.DetectorSensitivity < 0.9 {
		t.Fatalf("detector sensitivity %.3f", res.DetectorSensitivity)
	}
	if res.ARR < 0.7 {
		t.Fatalf("end-to-end ARR %.3f too low", res.ARR)
	}
	if res.NDR < 0.7 {
		t.Fatalf("end-to-end NDR %.3f too low", res.NDR)
	}
	if res.StoreGatedHours <= res.StoreAllHours {
		t.Fatal("gated storage must outlast store-all")
	}
	if s := res.Render(); !strings.Contains(s, "end-to-end classification") {
		t.Fatalf("render:\n%s", s)
	}
}
