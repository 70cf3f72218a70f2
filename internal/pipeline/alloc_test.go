package pipeline

import (
	"context"
	"runtime"
	"testing"

	"rpbeat/internal/apierr"
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
		beats += len(pipe.Push(v))
	}
	if beats == 0 {
		t.Fatal("warm-up emitted no beats; steady-state measurement would be vacuous")
	}

	next := 0
	testutil.AssertZeroAllocN(t, "steady-state Push (3600 samples per run)", 10, func() {
		for i := 0; i < 3600; i++ { // 10 seconds of stream per run
			pipe.Push(lead[next])
			next++
			if next == len(lead) {
				next = 0
			}
		}
	})
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

// TestRejectedOpenZeroAlloc pins the matching Open contract: a refused Open
// past MaxStreams costs nothing but the CAS — no allocation for the typed
// server_overloaded refusal.
func TestRejectedOpenZeroAlloc(t *testing.T) {
	eng := NewEngine(testCatalog(t, "m"), EngineConfig{Workers: 1, MaxStreams: 1})
	defer eng.Close()
	ctx := context.Background()

	st, err := eng.Open(ctx, "m", Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got error
	testutil.AssertZeroAlloc(t, "rejected Open at MaxStreams", func() {
		_, got = eng.Open(ctx, "m", Config{}, nil)
	})
	if !apierr.IsCode(got, apierr.CodeServerOverloaded) {
		t.Fatalf("rejected Open returned %v, want server_overloaded", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchClassifyIntoMatchesBatchClassify checks the scratch-reusing batch
// path against the allocating reference, across repeated reuse of one
// scratch (including a shorter record after a longer one, so stale buffer
// tails would surface).
func TestBatchClassifyIntoMatchesBatchClassify(t *testing.T) {
	emb := testModel(t)
	var scratch BatchScratch
	for _, spec := range []ecgsyn.RecordSpec{
		{Name: "b1", Seconds: 60, Seed: 3, PVCRate: 0.2},
		{Name: "b2", Seconds: 30, Seed: 9, PVCRate: 0.05},
		{Name: "b3", Seconds: 45, Seed: 12},
	} {
		lead := ecgsyn.Synthesize(spec).Leads[0]
		want, err := BatchClassify(context.Background(), emb, lead, Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := BatchClassifyInto(context.Background(), emb, lead, Config{}, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d beats via scratch, %d via reference", spec.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: beat %d = %+v, want %+v", spec.Name, i, got[i], want[i])
			}
		}
		// The allocation floor of the /v1/classify compute path: on a warm
		// scratch, only the three small allocations of sort.Slice in peak's
		// candidate arbitration remain; every signal- or beat-sized buffer
		// is reused.
		testutil.AssertAllocsAtMost(t, spec.Name+": warm BatchClassifyInto per record", 3, 10, func() {
			if _, err := BatchClassifyInto(context.Background(), emb, lead, Config{}, &scratch); err != nil {
				t.Fatal(err)
			}
		})
	}
}
