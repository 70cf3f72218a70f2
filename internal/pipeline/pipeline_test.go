package pipeline

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rpbeat/internal/beatset"
	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/fixp"
	"rpbeat/internal/rng"
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
		m, _, err := core.Train(ds, core.Config{
			Kind: core.KindBitemb, Coeffs: 8, Downsample: 4, PopSize: 4,
			Generations: 2, MinARR: 0.9, Seed: 31,
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

// pushOne is a one-sample PushChunk: it feeds p the sample v and returns
// the beats it finalized, reused by p's next call.
func pushOne(p *Pipeline, v int32) []BeatResult {
	p.PushChunk([]int32{v}, nil)
	return p.out
}

// streamRecord feeds lead to a fresh pipeline in chunks of the given sizes,
// cycled, flushes it and returns every beat, checking each one's
// DetectedAt on the way: at or after its Peak, never before an earlier
// beat's, within Delay() of its Peak for the beats emitted before Flush,
// and the record's last sample for the beats Flush emits.
func streamRecord(t testing.TB, emb *core.Embedded, lead []int32, sizes ...int) []BeatResult {
	t.Helper()
	p, err := New(emb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var out []BeatResult
	for off, c := 0, 0; off < len(lead); c++ {
		end := min(off+sizes[c%len(sizes)], len(lead))
		p.PushChunk(lead[off:end], func(beats []BeatResult) {
			for _, b := range beats {
				if lat := b.DetectedAt - b.Peak; lat > p.Delay() {
					t.Fatalf("beat %d finalized %d samples late (> Delay %d)", b.Peak, lat, p.Delay())
				}
			}
			out = append(out, beats...)
		})
		off = end
	}
	for _, b := range p.Flush() {
		if b.DetectedAt != len(lead)-1 {
			t.Fatalf("Flush emitted beat %d with DetectedAt %d, want the last sample, %d", b.Peak, b.DetectedAt, len(lead)-1)
		}
		out = append(out, b)
	}
	for i, b := range out {
		if b.DetectedAt < b.Peak || i > 0 && b.DetectedAt < out[i-1].DetectedAt {
			t.Fatalf("beat %d = %+v: DetectedAt before its Peak or before beat %d's", i, b, i-1)
		}
	}
	return out
}

// sameBeats reports the first beat at which got and want differ in
// position or class, or "" when they agree beat for beat.
func sameBeats(got, want []BeatResult) string {
	for i := range min(len(got), len(want)) {
		if got[i].Peak != want[i].Peak || got[i].Decision != want[i].Decision {
			return fmt.Sprintf("beat %d: stream (%d,%v), batch (%d,%v)",
				i, got[i].Peak, got[i].Decision, want[i].Peak, want[i].Decision)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("stream emitted %d beats, batch %d", len(got), len(want))
	}
	return ""
}

// short15 is a 15-sample lead, under Detect's minimum record length, on
// which the stream detector would report a beat if it did not apply the
// same minimum.
var short15 = []int32{1024, 1024, 1224, 824, 1124, 1224, 924, 1224, 1024, 1024, 824, 1224, 1224, 1024, 1124}

// hostileLeads are 11-bit leads no heart produces, n samples each: a flat
// line, a rail-to-rail square wave and uniform noise.
func hostileLeads(n int) map[string][]int32 {
	flat, square, noise := make([]int32, n), make([]int32, n), make([]int32, n)
	r := rng.New(3)
	for i := range n {
		flat[i] = ecgsyn.Baseline
		square[i] = ecgsyn.ADCMax * int32(i/90%2)
		noise[i] = int32(r.Intn(ecgsyn.ADCMax + 1))
	}
	return map[string][]int32{"flat": flat, "square": square, "noise": noise}
}

// TestPipelineMatchesBatch holds a stream fed any chunking and flushed to
// BatchClassify, beat for beat in position and class, to the record's last
// sample: on ECG records, on hostile leads and on every record length up
// to 400 samples, where every beat is one Flush finalizes.
func TestPipelineMatchesBatch(t *testing.T) {
	emb := testModel(t)
	records := hostileLeads(20 * 360)
	for _, tc := range []struct {
		seed uint64
		pvc  float64
	}{{5, 0.2}, {11, 0.05}} {
		rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "p", Seconds: 120, Seed: tc.seed, PVCRate: tc.pvc})
		records[fmt.Sprintf("seed %d", tc.seed)] = rec.Leads[0]
	}
	// A record under Detect's 16-sample minimum, so without a beat, whose
	// lone threshold window would otherwise yield one at sample 3.
	records["15 samples"] = short15
	// An ECG record with int32 spikes, which the wire admits: MinInt32 and
	// MinInt32+1000, below which an int32 difference from Baseline wraps,
	// each two samples before a MaxInt32, so that one 3-sample window
	// holds both. The stream filters counts and the batch millivolts, so
	// the two orders of the spikes must agree. Spikes alone would not do:
	// a rails lead yields no beat.
	spiked := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "p", Seconds: 20, Seed: 13, PVCRate: 0.1}).Leads[0]
	for i, v := range []int32{math.MinInt32, math.MinInt32 + 1000, math.MinInt32} {
		spiked[1000+2000*i], spiked[1002+2000*i] = v, math.MaxInt32
	}
	records["int32 spikes"] = spiked
	// Records that end at other phases of the beat and window cycles.
	for n := 30000; n < 38000; n += 997 {
		records[fmt.Sprintf("seed 11 cut at %d", n)] = records["seed 11"][:n]
	}
	for name, lead := range records {
		batch, err := BatchClassify(context.Background(), emb, lead, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(name, "seed") && len(batch) < 50 {
			t.Fatalf("%s: only %d batch beats", name, len(batch))
		}
		if name == "int32 spikes" && len(batch) < 20 {
			t.Fatalf("%s: only %d batch beats", name, len(batch))
		}
		for _, size := range []int{1, 180, 7919, len(lead)} {
			if msg := sameBeats(streamRecord(t, emb, lead, size), batch); msg != "" {
				t.Fatalf("%s, chunk %d: %s", name, size, msg)
			}
		}
	}

	lead := records["seed 5"]
	for n := 0; n <= 400; n++ {
		batch, err := BatchClassify(context.Background(), emb, lead[:n], Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 180, max(n, 1)} {
			if msg := sameBeats(streamRecord(t, emb, lead[:n], size), batch); msg != "" {
				t.Fatalf("%d samples, chunk %d: %s", n, size, msg)
			}
		}
	}
}

// TestPipelineBoundedMemory holds a stream's memory flat over its length:
// warm pipelines hold the same live heap per stream after five minutes of
// signal as after 30 s, within a small tolerance. The heap counts every
// buffer a pipeline owns (filter, DWT and detector state as well as the raw
// ring and the classifier scratch), so state that grows with the stream
// shows up here whichever stage it is in.
func TestPipelineBoundedMemory(t *testing.T) {
	emb := testModel(t)
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "m", Seconds: 30, Seed: 1, PVCRate: 0.1}).Leads[0]
	const streams, chunk, passes, tolerance = 16, 180, 10, 1 << 10
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	feed := func(p *Pipeline) {
		for off := 0; off < len(lead); off += chunk {
			p.PushChunk(lead[off:min(off+chunk, len(lead))], nil)
		}
	}
	base := heap()
	pipes := make([]*Pipeline, streams)
	for i := range pipes {
		p, err := New(emb, Config{})
		if err != nil {
			t.Fatal(err)
		}
		feed(p)
		pipes[i] = p
	}
	after30s := (heap() - base) / streams
	for pass := 1; pass < passes; pass++ {
		for _, p := range pipes {
			feed(p)
		}
	}
	afterAll := (heap() - base) / streams
	runtime.KeepAlive(pipes)
	runtime.KeepAlive(lead) // live in both measurements, not freed before the second
	t.Logf("heap per stream: %d B after 30 s, %d B after %d s", after30s, afterAll, passes*30)
	if d := afterAll - after30s; d > tolerance || d < -tolerance {
		t.Fatalf("heap per stream moved %+d B between 30 s and %d s of signal (%d -> %d B), want within %d B",
			d, passes*30, after30s, afterAll, tolerance)
	}
	if pipes[0].n != passes*len(lead) {
		t.Fatalf("consumed %d samples, want %d", pipes[0].n, passes*len(lead))
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
		{"Flush's room for the filter's tail", filterTail, p.filter.Delay()},
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
	p, err := New(testModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Classify(context.Background(), &emb, make([]int32, 100)); err == nil {
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
		pushOne(pipe, v)
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
		pushOne(pipe, lead[i%len(lead)])
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
