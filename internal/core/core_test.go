package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"rpbeat/internal/beatset"
	"rpbeat/internal/fixp"
	"rpbeat/internal/metrics"
	"rpbeat/internal/rng"
)

// smallDataset builds a reduced dataset once per test binary.
var cachedDS *beatset.Dataset

func smallDataset(t testing.TB) *beatset.Dataset {
	t.Helper()
	if cachedDS == nil {
		ds, err := beatset.Build(beatset.Config{Seed: 11, Scale: 0.04})
		if err != nil {
			t.Fatal(err)
		}
		cachedDS = ds
	}
	return cachedDS
}

// quickConfig keeps training fast for unit tests: tiny GA, short SCG.
func quickConfig() Config {
	return Config{
		Coeffs:      8,
		PopSize:     6,
		Generations: 4,
		SCGIters:    60,
		MinARR:      0.95,
		Seed:        3,
	}
}

func trainQuick(t testing.TB) (*Model, TrainStats) {
	t.Helper()
	ds := smallDataset(t)
	m, stats, err := Train(ds, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m, stats
}

func TestTrainProducesValidModel(t *testing.T) {
	m, stats := trainQuick(t)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.K != 8 || m.D != 200 || m.Downsample != 1 {
		t.Fatalf("model dims K=%d D=%d down=%d", m.K, m.D, m.Downsample)
	}
	if stats.BestFitness <= 0.5 {
		t.Fatalf("best fitness (NDR at ARR>=0.95) = %v, want > 0.5", stats.BestFitness)
	}
	if stats.Train2Point.ARR < 0.95 {
		t.Fatalf("train2 ARR %v below constraint", stats.Train2Point.ARR)
	}
	if len(stats.History) != 4 {
		t.Fatalf("history length %d", len(stats.History))
	}
}

func TestTrainEndToEndAccuracy(t *testing.T) {
	// The whole methodology on the reduced set must reach a useful
	// operating point on the full (test) split: the regression guard for
	// the pipeline as a whole.
	m, _ := trainQuick(t)
	ds := smallDataset(t)
	evals := m.Evaluate(ds, ds.Test)
	pt, _, err := metrics.NDRAtARR(evals, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if pt.NDR < 0.80 {
		t.Fatalf("test NDR %.4f at ARR>=0.95, want >= 0.80", pt.NDR)
	}
	if pt.ARR < 0.95 {
		t.Fatalf("test ARR %.4f", pt.ARR)
	}
}

func TestTrainDeterministic(t *testing.T) {
	ds := smallDataset(t)
	cfg := quickConfig()
	cfg.PopSize, cfg.Generations = 4, 2
	a, _, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.P.El {
		if a.P.El[i] != b.P.El[i] {
			t.Fatal("same seed produced different projections")
		}
	}
	if a.AlphaTrain != b.AlphaTrain {
		t.Fatal("same seed produced different alpha")
	}
}

func TestGAImprovesOverInitialGeneration(t *testing.T) {
	_, stats := trainQuick(t)
	first, last := stats.History[0], stats.History[len(stats.History)-1]
	if last < first {
		t.Fatalf("GA best regressed: %v -> %v", first, last)
	}
}

func TestDownsampledTraining(t *testing.T) {
	ds := smallDataset(t)
	cfg := quickConfig()
	cfg.Downsample = 4
	m, _, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.D != 50 {
		t.Fatalf("downsampled D = %d, want 50", m.D)
	}
	evals := m.Evaluate(ds, ds.Test)
	pt, _, err := metrics.NDRAtARR(evals, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if pt.NDR < 0.7 {
		t.Fatalf("downsampled NDR %.4f too low", pt.NDR)
	}
}

func TestQuantizeAndEmbeddedEvaluation(t *testing.T) {
	m, _ := trainQuick(t)
	ds := smallDataset(t)
	e, err := m.Quantize(fixp.MFLinear)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	noSparse := *e
	noSparse.S = nil // every kernel runs S; only Quantize builds an Embedded
	if noSparse.Validate() == nil {
		t.Fatal("Validate accepts an embedded model without its sparse projection")
	}
	evals := e.Evaluate(ds, ds.Test)
	pt, _, err := metrics.NDRAtARR(evals, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if pt.NDR < 0.7 {
		t.Fatalf("embedded NDR %.4f at ARR>=0.95, want >= 0.7", pt.NDR)
	}
	// Embedded should track the float pipeline within a few points (Table
	// II shows 1-3 percentage points of gap).
	floatEvals := m.Evaluate(ds, ds.Test)
	fpt, _, err := metrics.NDRAtARR(floatEvals, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fpt.NDR-pt.NDR) > 0.15 {
		t.Fatalf("float/embedded NDR gap too large: %.4f vs %.4f", fpt.NDR, pt.NDR)
	}
}

func TestEmbeddedClassifySingleBeat(t *testing.T) {
	m, _ := trainQuick(t)
	ds := smallDataset(t)
	e, err := m.Quantize(fixp.MFLinear)
	if err != nil {
		t.Fatal(err)
	}
	w := ds.IntWindow(ds.Test[0], e.Downsample)
	d := e.Classify(w)
	_ = d.String() // must be a valid decision
}

func TestEmbeddedMemoryFootprint(t *testing.T) {
	m, _ := trainQuick(t)
	e, err := m.Quantize(fixp.MFLinear)
	if err != nil {
		t.Fatal(err)
	}
	// 8x200 matrix packed = 400 bytes; MF tables 8*3*16 = 384 bytes.
	if e.MemoryBytes() != 400+384 {
		t.Fatalf("memory bytes = %d, want 784", e.MemoryBytes())
	}
	// Sanity against the paper's claim of ~2 KB data for the classifier.
	if e.MemoryBytes() > 2048 {
		t.Fatalf("classifier data %d B exceeds the ~2 KB envelope", e.MemoryBytes())
	}

	// Both heads at the paper's deployed geometry: k=8 coefficients over
	// d=50 samples (a 200-sample window downsampled by 4). The binary sizes
	// follow codec.go's layout: header = magic 4 + version 2 (+ kind 2 in
	// v2) + k, d, downsample 3*2 + alphaTrain, minARR 2*8, then the packed
	// projection ceil(8*50/4) = 100.
	r := rng.New(8)
	fuzzy, bit := randomModel(r, 8, 50, 4), randomBitembModel(r, 8, 50, 4)
	binarySize := func(model *Model) int {
		var buf bytes.Buffer
		if err := model.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	fe, err := fuzzy.Quantize(fixp.MFLinear)
	if err != nil {
		t.Fatal(err)
	}
	be, err := bit.Quantize(fixp.MFLinear)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		// v1: header 28 + projection 100 + centers and sigmas
		// 2 * (8*3) * 8 = 384.
		{"fuzzy binary model", binarySize(fuzzy), 512},
		// v2: header 30 + projection 100 + thresholds 8*4 = 32 + prototypes
		// 3 classes * Words(8) = 1 word * 8 = 24 + radii 3*2 = 6.
		{"bitemb binary model", binarySize(bit), 192},
		// The node's tables: 8*3 linearized membership functions of 16 B.
		{"fuzzy Cls.TableBytes", fe.Cls.TableBytes(), 384},
		// The v2 body after the projection: thresholds 32 + prototypes 24
		// + radii 6.
		{"bitemb Bit.TableBytes", be.Bit.TableBytes(), 62},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d B, want %d", c.name, c.got, c.want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m, _ := trainQuick(t)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	assertModelsEqual(t, m, &back)
}

func TestBinaryRoundTrip(t *testing.T) {
	m, _ := trainQuick(t)
	var buf bytes.Buffer
	if err := m.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertModelsEqual(t, m, back)
}

func assertModelsEqual(t *testing.T, a, b *Model) {
	t.Helper()
	if a.Kind != b.Kind {
		t.Fatal("kinds differ")
	}
	if a.K != b.K || a.D != b.D || a.Downsample != b.Downsample {
		t.Fatal("dimensions differ")
	}
	if a.AlphaTrain != b.AlphaTrain || a.MinARR != b.MinARR {
		t.Fatal("operating points differ")
	}
	for i := range a.P.El {
		if a.P.El[i] != b.P.El[i] {
			t.Fatal("projection differs")
		}
	}
	if a.Kind == KindBitemb {
		for i := range a.Bit.Thresholds {
			if a.Bit.Thresholds[i] != b.Bit.Thresholds[i] {
				t.Fatal("thresholds differ")
			}
		}
		for l := range a.Bit.Protos {
			for w := range a.Bit.Protos[l] {
				if a.Bit.Protos[l][w] != b.Bit.Protos[l][w] {
					t.Fatal("prototypes differ")
				}
			}
		}
		if a.Bit.Radii != b.Bit.Radii {
			t.Fatal("radii differ")
		}
		return
	}
	for i := range a.MF.C {
		if a.MF.C[i] != b.MF.C[i] || a.MF.Sigma[i] != b.MF.Sigma[i] {
			t.Fatal("membership functions differ")
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage should be rejected")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should be rejected")
	}
	// Valid magic but truncated body.
	if _, err := ReadBinary(bytes.NewReader([]byte{'R', 'P', 'B', 'T', 1, 0, 8, 0})); err == nil {
		t.Fatal("truncated model should be rejected")
	}
}

func TestJSONRejectsWrongFormat(t *testing.T) {
	var m Model
	if err := json.Unmarshal([]byte(`{"format":"other"}`), &m); err == nil {
		t.Fatal("wrong format tag should be rejected")
	}
}

func TestModelValidate(t *testing.T) {
	var m Model
	if m.Validate() == nil {
		t.Fatal("empty model should fail validation")
	}
}
