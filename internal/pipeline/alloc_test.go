package pipeline

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"rpbeat/internal/apierr"
	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/testutil"
)

// TestPipelinePushZeroAlloc holds the steady-state Push path to zero
// allocations: after the warm-up region (ring buffers at capacity, detector
// FIFOs grown to their working size), consuming samples — including ones
// that finalize beats — must not allocate. This is the invariant that lets
// one Engine run thousands of concurrent streams without GC pressure.
func TestPipelinePushZeroAlloc(t *testing.T) {
	emb := testModel(t)
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "za", Seconds: 60, Seed: 7, PVCRate: 0.1})
	lead := rec.Leads[0]

	pipe, err := New(emb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	beats := 0
	// Warm up: one full pass brings every internal buffer to steady state.
	for _, v := range lead {
		beats += len(pushOne(pipe, v))
	}
	if beats == 0 {
		t.Fatal("warm-up emitted no beats; steady-state measurement would be vacuous")
	}

	next := 0
	testutil.AssertZeroAllocN(t, "steady-state Push (3600 samples per run)", 10, func() {
		for i := 0; i < 3600; i++ { // 10 seconds of stream per run
			pushOne(pipe, lead[next])
			next++
			if next == len(lead) {
				next = 0
			}
		}
	})
}

// TestPipelineHeapPerStream holds a stream's heap footprint, everything New
// and a warm PushChunk leave behind, to at most 48 KiB: the engine keeps
// one pipeline per open stream, so bytes per stream set how many streams a
// server can hold. The block front end keeps its scratch in stack arrays,
// not per-stream fields, for this reason; a raw ring padded past its 2,048
// entries would break the bound too.
func TestPipelineHeapPerStream(t *testing.T) {
	emb := testModel(t)
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "hp", Seconds: 30, Seed: 4, PVCRate: 0.1}).Leads[0]
	const streams, chunk, limit = 256, 180, 48 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	pipes := make([]*Pipeline, streams)
	for i := range pipes {
		p, err := New(emb, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(lead); off += chunk {
			p.PushChunk(lead[off:min(off+chunk, len(lead))], nil)
		}
		pipes[i] = p
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pipes)
	perStream := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / streams
	t.Logf("heap per stream: %d B (limit %d B)", perStream, limit)
	if perStream > limit {
		t.Fatalf("each pipeline holds %d B of heap, want <= %d B", perStream, limit)
	}
}

// TestEngineSendZeroAlloc holds the steady-state Send path to zero
// allocations: once the stream's spare chunk buffers, its FIFO backing
// array, the shard queue and the pipeline's internal buffers are warm,
// enqueuing a chunk and having a worker drain it must not allocate — on
// either side of the handoff (AllocsPerRun counts the worker goroutine's
// allocations too), in every build. This is the recycled-Send counterpart
// of TestPipelinePushZeroAlloc.
func TestEngineSendZeroAlloc(t *testing.T) {
	eng := NewEngine(testCatalog(t, "m"), EngineConfig{Workers: 1})
	defer eng.Close()
	ctx := context.Background()
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "sza", Seconds: 60, Seed: 8, PVCRate: 0.1}).Leads[0]

	st, err := eng.Open(ctx, "m", Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 720
	drain := func() {
		for st.PendingSamples() > 0 {
			runtime.Gosched()
		}
	}
	// Warm up: one full pass brings the spares, FIFO and pipeline to
	// steady state.
	for off := 0; off+chunk <= len(lead); off += chunk {
		if err := st.Send(ctx, lead[off:off+chunk]); err != nil {
			t.Fatal(err)
		}
	}
	drain()

	var sendErr error
	next := 0
	testutil.AssertZeroAllocN(t, "steady-state Send (5 chunks per run)", 10, func() {
		for i := 0; i < 5; i++ {
			if err := st.Send(ctx, lead[next:next+chunk]); err != nil {
				sendErr = err
				return
			}
			next += chunk
			if next+chunk > len(lead) {
				next = 0
			}
			drain()
		}
	})
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedSendZeroAlloc pins the refusal half of Send's contract: once
// the stream queue sits at MaxPending, a rejected Send costs neither an
// allocation nor a copy. Regression test for the refusal path building a
// fresh error (with a formatted pending count) per rejected call — exactly
// the moment the server is already out of headroom.
func TestRejectedSendZeroAlloc(t *testing.T) {
	eng := NewEngine(testCatalog(t, "m"), EngineConfig{Workers: 1, MaxPending: 16})
	defer eng.Close()
	ctx := context.Background()

	// Park the only worker in the sink so the queue stays full for the
	// whole measurement (the TestEngineOverload setup).
	block := make(chan struct{})
	release := make(chan struct{})
	released := false
	// A test failure must still unpark the worker, or the deferred
	// eng.Close deadlocks on it.
	defer func() {
		if !released {
			close(release)
		}
	}()
	blocked := false
	st, err := eng.Open(ctx, "m", Config{}, func([]BeatResult) {
		if !blocked {
			blocked = true
			close(block)
			<-release
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "rz", Seconds: 5, Seed: 6, PVCRate: 0.1}).Leads[0]
	if err := st.Send(ctx, lead); err != nil {
		t.Fatal(err)
	}
	<-block
	chunk := make([]int32, 8)
	overloaded := false
	for i := 0; i < 5 && !overloaded; i++ {
		overloaded = apierr.IsCode(st.Send(ctx, chunk), apierr.CodeStreamOverloaded)
	}
	if !overloaded {
		t.Fatal("queue never reported overload")
	}

	// The code check stays outside the closure: apierr.IsCode itself
	// allocates (errors.As target), and only Send is under measurement.
	var got error
	testutil.AssertZeroAlloc(t, "rejected Send at MaxPending", func() {
		got = st.Send(ctx, chunk)
	})
	if !apierr.IsCode(got, apierr.CodeStreamOverloaded) {
		t.Fatalf("rejected Send returned %v, want stream_overloaded", got)
	}
	released = true
	close(release)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineClassifyMatchesBatchClassify reuses one pipeline across
// records and heads, the way /v1/classify pools them: a shorter record
// after a longer one, and fuzzy, bitemb, fuzzy again, so a re-arm that
// left stale state from the last record or model would show here. Every
// record's beats equal BatchClassify's in position and class, and a warm
// pipeline classifies a record without allocating.
func TestPipelineClassifyMatchesBatchClassify(t *testing.T) {
	fuzzy, bitemb := testModel(t), testBitembModel(t)
	var p *Pipeline
	for _, tc := range []struct {
		spec ecgsyn.RecordSpec
		emb  *core.Embedded
	}{
		{ecgsyn.RecordSpec{Name: "b1", Seconds: 60, Seed: 3, PVCRate: 0.2}, fuzzy},
		{ecgsyn.RecordSpec{Name: "b2", Seconds: 30, Seed: 9, PVCRate: 0.05}, bitemb},
		{ecgsyn.RecordSpec{Name: "b3", Seconds: 45, Seed: 12}, fuzzy},
		{ecgsyn.RecordSpec{Name: "b4", Seconds: 20, Seed: 14, PVCRate: 0.3}, bitemb},
	} {
		lead := ecgsyn.Synthesize(tc.spec).Leads[0]
		want, err := BatchClassify(context.Background(), tc.emb, lead, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			if p, err = New(tc.emb, Config{}); err != nil {
				t.Fatal(err)
			}
		}
		got, err := p.Classify(context.Background(), tc.emb, lead)
		if err != nil {
			t.Fatal(err)
		}
		if msg := sameBeats(got, want); msg != "" {
			t.Fatalf("%s (%v head): %s", tc.spec.Name, tc.emb.Kind, msg)
		}
		// The allocation floor of the /v1/classify compute path: every
		// buffer is the stream's own, sized at New or by an earlier record.
		testutil.AssertZeroAlloc(t, tc.spec.Name+": warm Classify per record", func() {
			if _, err := p.Classify(context.Background(), tc.emb, lead); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClassifyHeapBoundedByBeats holds what a warm classify pipeline
// retains to the stream footprint plus its beats: after a 10-minute record
// it retains no more than after a 60 s one, apart from its beat slice,
// grown to the longer record's beats, and a small constant. Record-length
// buffers would add about 80 B per sample, some 15 MB here.
func TestClassifyHeapBoundedByBeats(t *testing.T) {
	emb := testModel(t)
	short := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "h1", Seconds: 60, Seed: 5, PVCRate: 0.1}).Leads[0]
	long := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "h2", Seconds: 600, Seed: 6, PVCRate: 0.1}).Leads[0]
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	ctx := context.Background()
	p, err := New(emb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Classify(ctx, emb, short); err != nil {
		t.Fatal(err)
	}
	afterShort := heap()
	beats, err := p.Classify(ctx, emb, long)
	if err != nil {
		t.Fatal(err)
	}
	afterLong := heap()
	runtime.KeepAlive(p)
	runtime.KeepAlive(short) // both records are live in both measurements
	runtime.KeepAlive(long)
	beatBytes := int64(cap(beats)) * int64(unsafe.Sizeof(BeatResult{}))
	const slack = 16 << 10
	t.Logf("heap grew %d B from a 60 s to a 600 s record; %d beats hold %d B", afterLong-afterShort, len(beats), beatBytes)
	if grew := afterLong - afterShort; grew > beatBytes+slack {
		t.Fatalf("a warm classify pipeline retains %d B more after 600 s than after 60 s, want <= %d B (beats) + %d B",
			grew, beatBytes, slack)
	}
}

// cancelAfter is a context whose Err turns to context.Canceled from its
// k-th call on.
type cancelAfter struct {
	context.Context
	calls, k int
}

func (c *cancelAfter) Err() error {
	if c.calls++; c.calls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestClassifyHonorsContext: a context already done stops Classify before
// its first sample, and one that ends mid-record stops it at the next
// stride, long before the record's end; both return the context's error
// and no beats.
func TestClassifyHonorsContext(t *testing.T) {
	emb := testModel(t)
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "cx", Seconds: 300, Seed: 8, PVCRate: 0.1}).Leads[0]
	p, err := New(emb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		samples int // consumed when Classify stops
	}{
		{"done before the call", done, 0},
		{"done at the third check", &cancelAfter{Context: context.Background(), k: 3}, 2 * classifyStride},
	} {
		beats, err := p.Classify(tc.ctx, emb, lead)
		if !errors.Is(err, context.Canceled) || beats != nil {
			t.Fatalf("%s: Classify returned %d beats, error %v; want none and context.Canceled", tc.name, len(beats), err)
		}
		if p.n != tc.samples {
			t.Fatalf("%s: Classify consumed %d of %d samples, want %d", tc.name, p.n, len(lead), tc.samples)
		}
	}
}
