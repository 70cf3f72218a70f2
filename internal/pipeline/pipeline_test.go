package pipeline

import (
	"context"
	"sync"
	"testing"

	"rpbeat/internal/beatset"
	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/fixp"
	"rpbeat/internal/sigdsp"
)

var (
	modelOnce  sync.Once
	modelFloat *core.Model
	modelEmb   *core.Embedded
	modelErr   error

	bitembOnce  sync.Once
	bitembFloat *core.Model
	bitembEmb   *core.Embedded
	bitembErr   error
)

// testModel trains one small model per test binary (the same reduced-scale
// configuration the repository's integration tests use).
func testModel(t testing.TB) *core.Embedded {
	t.Helper()
	testFloatModel(t)
	return modelEmb
}

// testBitembFloatModel trains one small binary-embedding model per test
// binary — the second head kind the mixed-fleet engine tests serve next to
// the fuzzy one.
func testBitembFloatModel(t testing.TB) *core.Model {
	t.Helper()
	bitembOnce.Do(func() {
		ds, err := beatset.Build(beatset.Config{Seed: 31, Scale: 0.03})
		if err != nil {
			bitembErr = err
			return
		}
		m, _, err := core.TrainBitemb(ds, core.Config{
			Coeffs: 8, Downsample: 4, PopSize: 4, Generations: 2,
			MinARR: 0.9, Seed: 31,
		})
		if err != nil {
			bitembErr = err
			return
		}
		bitembFloat = m
		bitembEmb, bitembErr = m.Quantize(fixp.MFLinear)
	})
	if bitembErr != nil {
		t.Fatal(bitembErr)
	}
	return bitembFloat
}

func testBitembModel(t testing.TB) *core.Embedded {
	t.Helper()
	testBitembFloatModel(t)
	return bitembEmb
}

// testFloatModel is the float form of the same model — what catalog.Put
// consumes in the engine tests.
func testFloatModel(t testing.TB) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		ds, err := beatset.Build(beatset.Config{Seed: 31, Scale: 0.03})
		if err != nil {
			modelErr = err
			return
		}
		m, _, err := core.Train(ds, core.Config{
			Coeffs: 8, Downsample: 4, PopSize: 4, Generations: 2,
			SCGIters: 50, MinARR: 0.9, Seed: 31,
		})
		if err != nil {
			modelErr = err
			return
		}
		modelFloat = m
		modelEmb, modelErr = m.Quantize(fixp.MFLinear)
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return modelFloat
}

func TestPipelineMatchesBatch(t *testing.T) {
	emb := testModel(t)
	for _, tc := range []struct {
		seed uint64
		pvc  float64
	}{{5, 0.2}, {11, 0.05}} {
		rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "p", Seconds: 120, Seed: tc.seed, PVCRate: tc.pvc})
		lead := rec.Leads[0]

		batch, err := BatchClassify(context.Background(), emb, lead, Config{})
		if err != nil {
			t.Fatal(err)
		}

		pipe, err := New(emb, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var stream []BeatResult
		for _, v := range lead {
			for _, b := range pipe.Push(v) {
				if lat := b.DetectedAt - b.Peak; lat > pipe.Delay() {
					t.Fatalf("seed %d: beat %d finalized %d samples late (> Delay %d)",
						tc.seed, b.Peak, lat, pipe.Delay())
				}
				stream = append(stream, b)
			}
		}
		stream = append(stream, pipe.Flush()...)

		// Beat-for-beat equality away from the record tail: batch thresholds
		// there use windows the stream only sees truncated at Flush.
		limit := len(lead) - pipe.Delay()
		want := keepBefore(batch, limit)
		got := keepBefore(stream, limit)
		if len(want) < 50 {
			t.Fatalf("seed %d: only %d batch beats before the tail margin", tc.seed, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: stream emitted %d beats, batch %d", tc.seed, len(got), len(want))
		}
		for i := range want {
			if got[i].Peak != want[i].Peak || got[i].Decision != want[i].Decision {
				t.Fatalf("seed %d: beat %d: stream (%d,%v) != batch (%d,%v)",
					tc.seed, i, got[i].Peak, got[i].Decision, want[i].Peak, want[i].Decision)
			}
		}
	}
}

func keepBefore(beats []BeatResult, limit int) []BeatResult {
	out := beats[:0:0]
	for _, b := range beats {
		if b.Peak < limit {
			out = append(out, b)
		}
	}
	return out
}

func TestPipelineBoundedMemory(t *testing.T) {
	emb := testModel(t)
	pipe, err := New(emb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "m", Seconds: 30, Seed: 1})
	for _, v := range rec.Leads[0] {
		pipe.Push(v)
	}
	after30s := pipe.MemoryBytes()
	for i := 0; i < 4; i++ {
		for _, v := range rec.Leads[0] {
			pipe.Push(v)
		}
	}
	if m := pipe.MemoryBytes(); m != after30s {
		t.Fatalf("working set grew with stream length: %d -> %d bytes", after30s, m)
	}
	if pipe.Samples() != 5*len(rec.Leads[0]) {
		t.Fatalf("consumed %d samples, want %d", pipe.Samples(), 5*len(rec.Leads[0]))
	}
}

// TestFrontEndGeometry pins the fixed front end in samples at 360 Hz: the
// structuring elements, the detector window, the beat window and the delays
// and replay bound they add up to. A changed constant shows up here.
func TestFrontEndGeometry(t *testing.T) {
	p, err := New(testModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name      string
		got, want int
	}{
		{"noise element", sigdsp.NoiseElem, 3},
		{"baseline opening element", baseline.OpenLen(), 73},
		{"baseline closing element", baseline.CloseLen(), 109},
		{"filter delay", p.filter.Delay(), 184},
		{"detector window", p.det.Window(), 720},
		{"beat window", windowLen, 200},
		{"Pipeline.Delay", p.Delay(), 1779},
		// The gateway's replay journal window.
		{"ResyncWarmup", ResyncWarmup(Config{}), 4662},
	} {
		if row.got != row.want {
			t.Errorf("%s = %d samples, want %d", row.name, row.got, row.want)
		}
	}
}

func TestPipelineRejectsMismatchedGeometry(t *testing.T) {
	// The model's input dimension follows from the beat window at its own
	// downsampling factor; the same tables claiming another factor do not fit.
	emb := *testModel(t)
	emb.Downsample *= 2
	if _, err := New(&emb, Config{}); err == nil {
		t.Fatal("expected a window/model dimension mismatch error")
	}
	if _, err := BatchClassify(context.Background(), &emb, make([]int32, 100), Config{}); err == nil {
		t.Fatal("expected a window/model dimension mismatch error")
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("expected an error for a nil model")
	}
}

func TestPipelineFlushIsTerminal(t *testing.T) {
	emb := testModel(t)
	pipe, err := New(emb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "f", Seconds: 20, Seed: 2})
	for _, v := range rec.Leads[0] {
		pipe.Push(v)
	}
	first := len(pipe.Flush())
	if again := len(pipe.Flush()); again != 0 {
		t.Fatalf("second Flush emitted %d beats (first emitted %d)", again, first)
	}
}

func BenchmarkPipelinePush(b *testing.B) {
	emb := testModel(b)
	pipe, err := New(emb, Config{})
	if err != nil {
		b.Fatal(err)
	}
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "b", Seconds: 60, Seed: 3, PVCRate: 0.1})
	lead := rec.Leads[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Push(lead[i%len(lead)])
	}
}

func BenchmarkBatchClassify60s(b *testing.B) {
	emb := testModel(b)
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "bb", Seconds: 60, Seed: 3, PVCRate: 0.1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BatchClassify(context.Background(), emb, rec.Leads[0], Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
