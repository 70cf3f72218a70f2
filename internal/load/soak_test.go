package load

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"rpbeat/internal/apierr"
	"rpbeat/internal/catalog"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/serve"
	"rpbeat/internal/testutil"
)

// soakStack builds the serving stack without t.Cleanup so the test
// controls teardown order explicitly (the drain test IS the teardown).
func soakStack(t *testing.T, workers int, cfg serve.HandlerConfig) (*httptest.Server, *pipeline.Engine) {
	t.Helper()
	cat := catalog.New()
	if _, err := cat.Put("default", testModel(t), nil); err != nil {
		t.Fatal(err)
	}
	eng := pipeline.NewEngine(cat, pipeline.EngineConfig{Workers: workers})
	return httptest.NewServer(serve.NewHandler(eng, cfg)), eng
}

// waitGoroutines polls until the goroutine count settles at or below want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines stuck at %d, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSoakFleet is the soak satellite: ~200 concurrent streams through the
// whole stack (fleet driver -> HTTP -> binary decode -> engine -> NDJSON
// beats back), meant to run under -race. Afterward the engine must still
// hold its steady-state invariants: Send at 0 allocs/op on the soaked
// engine, and not one goroutine leaked.
func TestSoakFleet(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ts, eng := soakStack(t, 2, serve.HandlerConfig{})

	transport := &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}
	const streams, seconds = 200, 12
	rep, err := Run(context.Background(), Config{
		BaseURL: ts.URL,
		Streams: streams,
		Seconds: seconds,
		Speedup: 24,
		Seed:    7,
		Client:  &http.Client{Transport: transport},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StreamsOK != streams || rep.StreamsShed != 0 || rep.StreamsFailed != 0 {
		t.Fatalf("streams ok/shed/failed = %d/%d/%d, want %d/0/0 (errors: %v)",
			rep.StreamsOK, rep.StreamsShed, rep.StreamsFailed, streams, rep.ErrorCounts)
	}
	if want := int64(streams * seconds * 360); rep.Samples != want {
		t.Fatalf("samples = %d, want %d: beats or samples went missing under load", rep.Samples, want)
	}
	if rep.Beats == 0 {
		t.Fatal("soak observed no beats")
	}

	// Zero-alloc invariant, re-asserted on the engine the soak just
	// hammered: the worker and FIFO state 200 streams left behind must
	// still serve steady-state Send without allocating.
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "probe", Seconds: 30, Seed: 99, PVCRate: 0.1}).Leads[0]
	st, err := eng.Open(context.Background(), "", pipeline.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 720
	drain := func() {
		for st.PendingSamples() > 0 {
			runtime.Gosched()
		}
	}
	for off := 0; off+chunk <= len(lead); off += chunk { // warm this stream
		if err := st.Send(context.Background(), lead[off:off+chunk]); err != nil {
			t.Fatal(err)
		}
	}
	drain()
	next := 0
	testutil.AssertZeroAllocN(t, "steady-state Send after the soak", 10, func() {
		for i := 0; i < 5; i++ {
			if err := st.Send(context.Background(), lead[next:next+chunk]); err != nil {
				t.Fatal(err)
			}
			next += chunk
			if next+chunk > len(lead) {
				next = 0
			}
			drain()
		}
	})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Full teardown, then the leak check: everything the soak spawned —
	// fleet goroutines, HTTP conns both sides, engine workers — must be
	// gone.
	transport.CloseIdleConnections()
	ts.Close()
	eng.Close()
	waitGoroutines(t, baseline+2)
}

// TestGracefulDrainMidFleet is the drain satellite: SIGTERM's handler path
// (http.Server.Shutdown, then Engine.Close — exactly rpserve's order) fired
// while a fleet is mid-stream. Every admitted stream must finish with its
// beats and done line, post-drain engine work must get typed shutting_down
// errors, and nothing may leak.
func TestGracefulDrainMidFleet(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ts, eng := soakStack(t, 2, serve.HandlerConfig{})
	transport := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}

	const streams, seconds = 24, 10
	type result struct {
		rep *Report
		err error
	}
	resc := make(chan result, 1)
	go func() {
		rep, err := Run(context.Background(), Config{
			BaseURL: ts.URL,
			Streams: streams,
			Seconds: seconds,
			Speedup: 8, // ~1.25s per stream: plenty of mid-stream to drain in
			Seed:    3,
			Client:  &http.Client{Transport: transport},
		})
		resc <- result{rep, err}
	}()

	// Wait until the whole fleet is mid-stream, then pull the trigger.
	for eng.OpenStreams() < streams {
		time.Sleep(time.Millisecond)
	}
	// A direct engine stream stands in for any embedded (non-HTTP) user:
	// alive through the HTTP drain, typed-refused after engine close.
	direct, err := eng.Open(context.Background(), "", pipeline.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ts.Config.Shutdown(shutCtx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}

	r := <-resc
	if r.err != nil {
		t.Fatal(r.err)
	}
	// Shutdown waits for in-flight requests: every stream that was open
	// when the signal hit must have delivered everything.
	if r.rep.StreamsOK != streams || r.rep.StreamsFailed != 0 {
		t.Fatalf("streams ok/failed = %d/%d, want %d/0 (errors: %v)",
			r.rep.StreamsOK, r.rep.StreamsFailed, streams, r.rep.ErrorCounts)
	}
	if want := int64(streams * seconds * 360); r.rep.Samples != want {
		t.Fatalf("samples = %d, want %d: drain dropped in-flight beats", r.rep.Samples, want)
	}
	if r.rep.Beats == 0 {
		t.Fatal("drained fleet delivered no beats")
	}

	// The HTTP drain never touched the engine: the direct stream still works.
	if err := direct.Send(context.Background(), []int32{1000, 1001, 1002, 1003}); err != nil {
		t.Fatalf("direct stream dead during HTTP drain: %v", err)
	}
	eng.Close()
	// Post-drain: typed errors, not panics or hangs.
	if err := direct.Send(context.Background(), []int32{1000}); !apierr.IsCode(err, apierr.CodeShuttingDown) {
		t.Fatalf("post-drain Send error = %v, want typed shutting_down", err)
	}
	if _, err := eng.Open(context.Background(), "", pipeline.Config{}, nil); !apierr.IsCode(err, apierr.CodeShuttingDown) {
		t.Fatalf("post-drain Open error = %v, want typed shutting_down", err)
	}

	transport.CloseIdleConnections()
	ts.Close() // idempotent after Shutdown; frees the test server bookkeeping
	waitGoroutines(t, baseline+2)
}
