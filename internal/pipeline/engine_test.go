package pipeline

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpbeat/internal/apierr"
	"rpbeat/internal/catalog"
	"rpbeat/internal/ecgsyn"
)

// testCatalog builds a memory catalog holding the trained test model under
// the given names (one version each).
func testCatalog(t testing.TB, names ...string) *catalog.Catalog {
	t.Helper()
	m := testFloatModel(t)
	cat := catalog.New()
	for _, name := range names {
		if _, err := cat.Put(name, m, nil); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// TestEngineMatchesSequential drives several concurrent patient streams
// through a shared worker pool and checks every stream's output against a
// sequential single-pipeline run of the same record. Run under -race (CI
// does) this is also the engine's race-detector test.
func TestEngineMatchesSequential(t *testing.T) {
	emb := testModel(t)
	eng := NewEngine(testCatalog(t, "a", "b"), EngineConfig{Workers: 4})
	defer eng.Close()
	ctx := context.Background()

	const streams = 6
	type result struct {
		got  []BeatResult
		want []BeatResult
	}
	results := make([]result, streams)

	var wg sync.WaitGroup
	for si := 0; si < streams; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{
				Name: "e", Seconds: 45, Seed: uint64(100 + si), PVCRate: 0.1,
			})
			lead := rec.Leads[0]

			// Sequential reference.
			pipe, err := New(emb, Config{})
			if err != nil {
				t.Error(err)
				return
			}
			for _, v := range lead {
				results[si].want = append(results[si].want, pushOne(pipe, v)...)
			}
			results[si].want = append(results[si].want, pipe.Flush()...)

			// Engine run, alternating model references (pinned and
			// floating), chunked with uneven sizes.
			model := "a@v1"
			if si%2 == 1 {
				model = "b"
			}
			st, err := eng.Open(ctx, model, Config{}, func(beats []BeatResult) {
				results[si].got = append(results[si].got, beats...)
			})
			if err != nil {
				t.Error(err)
				return
			}
			chunk := 360 + 97*si
			for off := 0; off < len(lead); off += chunk {
				end := off + chunk
				if end > len(lead) {
					end = len(lead)
				}
				if err := st.Send(ctx, lead[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}(si)
	}
	wg.Wait()

	for si, r := range results {
		if len(r.got) != len(r.want) {
			t.Fatalf("stream %d: engine emitted %d beats, sequential %d", si, len(r.got), len(r.want))
		}
		for i := range r.want {
			if r.got[i] != r.want[i] {
				t.Fatalf("stream %d beat %d: engine %+v != sequential %+v", si, i, r.got[i], r.want[i])
			}
		}
		if len(r.want) == 0 {
			t.Fatalf("stream %d: no beats at all", si)
		}
	}
}

// TestEngineMixedKinds runs a fuzzy-head and a bitemb-head model on one
// engine concurrently — streams pinned to different kinds share the worker
// pool — and holds each stream beat-exact
// against a sequential single-pipeline run of its own model. Under -race
// (CI) this is also the mixed-fleet race test: the per-stream Scratch must
// never be shared across kinds. Mid-run it deletes the bitemb version from
// the catalog to confirm the pin semantics are kind-independent.
func TestEngineMixedKinds(t *testing.T) {
	fuzzyEmb := testModel(t)
	bitEmb := testBitembModel(t)
	cat := catalog.New()
	if _, err := cat.Put("fz", testFloatModel(t), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Put("bin", testBitembFloatModel(t), nil); err != nil {
		t.Fatal(err)
	}
	man, err := cat.Snapshot().Resolve("bin@v1")
	if err != nil {
		t.Fatal(err)
	}
	if man.Manifest.Kind != "bitemb" {
		t.Fatalf("bin@v1 manifest kind = %q, want bitemb", man.Manifest.Kind)
	}

	eng := NewEngine(cat, EngineConfig{Workers: 4})
	defer eng.Close()
	ctx := context.Background()

	const streams = 4
	type result struct{ got, want []BeatResult }
	results := make([]result, streams)
	var deleted sync.Once
	var opened sync.WaitGroup // all streams open before the delete fires
	opened.Add(streams)

	var wg sync.WaitGroup
	for si := 0; si < streams; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			emb, model := fuzzyEmb, "fz@v1"
			if si%2 == 1 {
				emb, model = bitEmb, "bin@v1"
			}
			lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{
				Name: "mix", Seconds: 30, Seed: uint64(500 + si), PVCRate: 0.1,
			}).Leads[0]

			pipe, err := New(emb, Config{})
			if err != nil {
				t.Error(err)
				return
			}
			for _, v := range lead {
				results[si].want = append(results[si].want, pushOne(pipe, v)...)
			}
			results[si].want = append(results[si].want, pipe.Flush()...)

			st, err := eng.Open(ctx, model, Config{}, func(beats []BeatResult) {
				results[si].got = append(results[si].got, beats...)
			})
			opened.Done()
			if err != nil {
				t.Error(err)
				return
			}
			for off := 0; off < len(lead); off += 731 {
				end := off + 731
				if end > len(lead) {
					end = len(lead)
				}
				if err := st.Send(ctx, lead[off:end]); err != nil {
					t.Error(err)
					return
				}
				// Halfway through the first bitemb stream, delete its model:
				// the pin must keep serving it regardless of head kind.
				if si == 1 && off > len(lead)/2 {
					deleted.Do(func() {
						opened.Wait()
						if _, err := cat.Delete("bin", 1); err != nil {
							t.Error(err)
						}
					})
				}
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}(si)
	}
	wg.Wait()

	for si, r := range results {
		if len(r.want) == 0 {
			t.Fatalf("stream %d: no beats at all", si)
		}
		if len(r.got) != len(r.want) {
			t.Fatalf("stream %d: engine emitted %d beats, sequential %d", si, len(r.got), len(r.want))
		}
		for i := range r.want {
			if r.got[i] != r.want[i] {
				t.Fatalf("stream %d beat %d: engine %+v != sequential %+v", si, i, r.got[i], r.want[i])
			}
		}
	}
	// The deleted bitemb version stays gone for new opens.
	if _, err := eng.Open(ctx, "bin@v1", Config{}, nil); !apierr.IsCode(err, apierr.CodeModelNotFound) {
		t.Fatalf("open of deleted bitemb version: %v", err)
	}
}

func TestEngineStreamLifecycle(t *testing.T) {
	eng := NewEngine(testCatalog(t, "only"), EngineConfig{Workers: 2})
	ctx := context.Background()

	if _, err := eng.Open(ctx, "missing", Config{}, nil); !apierr.IsCode(err, apierr.CodeModelNotFound) {
		t.Fatalf("unknown model: %v", err)
	}
	if _, err := eng.Open(ctx, "only@v9", Config{}, nil); !apierr.IsCode(err, apierr.CodeModelNotFound) {
		t.Fatalf("unknown version: %v", err)
	}
	if _, err := eng.Open(ctx, "only@@", Config{}, nil); !apierr.IsCode(err, apierr.CodeBadInput) {
		t.Fatalf("malformed reference: %v", err)
	}

	st, err := eng.Open(ctx, "only", Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Entry().Manifest.Ref(); got != "only@v1" {
		t.Fatalf("stream pinned %q", got)
	}
	if err := st.Send(ctx, make([]int32, 512)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Send(ctx, make([]int32, 1)); err == nil {
		t.Fatal("expected send-on-closed-stream to fail")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	eng.Close()
	if err := st.Send(ctx, make([]int32, 1)); err == nil {
		t.Fatal("expected send after engine shutdown to fail")
	}
	if _, err := eng.Open(ctx, "only", Config{}, nil); err != nil {
		// Open still works mechanically after Close; streams just cannot run.
		t.Logf("open after close: %v", err)
	}
}

// TestEngineContextCancellation: a canceled context fails Open and Send
// with the typed canceled code before any work is queued.
func TestEngineContextCancellation(t *testing.T) {
	eng := NewEngine(testCatalog(t, "m"), EngineConfig{Workers: 1})
	defer eng.Close()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Open(canceled, "m", Config{}, nil); !apierr.IsCode(err, apierr.CodeCanceled) {
		t.Fatalf("Open with canceled ctx: %v", err)
	}

	st, err := eng.Open(context.Background(), "m", Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send(canceled, make([]int32, 8)); !apierr.IsCode(err, apierr.CodeCanceled) {
		t.Fatalf("Send with canceled ctx: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStreamPinsDeletedModel: a stream opened before its model
// version is deleted keeps classifying against it (snapshot semantics).
func TestEngineStreamPinsDeletedModel(t *testing.T) {
	m := testFloatModel(t)
	cat := catalog.New()
	if _, err := cat.Put("m", m, nil); err != nil {
		t.Fatal(err)
	}
	// Second version with one projection element flipped: different bytes,
	// same shape — v1 becomes deletable (not what the default resolves to).
	m2 := *m
	P2 := m.P.Clone()
	if P2.El[0] == 0 {
		P2.El[0] = 1
	} else {
		P2.El[0] = 0
	}
	m2.P = P2
	if _, err := cat.Put("m", &m2, nil); err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(cat, EngineConfig{Workers: 1})
	defer eng.Close()
	ctx := context.Background()

	beats := 0
	st, err := eng.Open(ctx, "m@v1", Config{}, func(res []BeatResult) { beats += len(res) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Delete("m", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Snapshot().Resolve("m@v1"); err == nil {
		t.Fatal("v1 should be gone from the catalog")
	}

	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "pin", Seconds: 30, Seed: 3, PVCRate: 0.1}).Leads[0]
	for off := 0; off < len(lead); off += 720 {
		end := off + 720
		if end > len(lead) {
			end = len(lead)
		}
		if err := st.Send(ctx, lead[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if beats == 0 {
		t.Fatal("pinned stream classified nothing after its model was deleted")
	}
	// New opens of the deleted version fail in the typed way.
	if _, err := eng.Open(ctx, "m@v1", Config{}, nil); !apierr.IsCode(err, apierr.CodeModelNotFound) {
		t.Fatalf("open of deleted version: %v", err)
	}
}

// TestEngineOverload: with a tiny queue bound (in samples) and no workers
// draining (the stream is held "running" by a stalled sink), Send reports
// the typed overload error instead of queueing without bound.
func TestEngineOverload(t *testing.T) {
	eng := NewEngine(testCatalog(t, "m"), EngineConfig{Workers: 1, MaxPending: 16})
	defer eng.Close()
	ctx := context.Background()

	block := make(chan struct{})
	release := make(chan struct{})
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
	// A couple of seconds of signal guarantees at least one finalized beat,
	// which parks the only worker in the sink above.
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "ov", Seconds: 5, Seed: 6, PVCRate: 0.1}).Leads[0]
	if err := st.Send(ctx, lead); err != nil {
		t.Fatal(err)
	}
	<-block

	// The worker is parked; every chunk now stays in the FIFO.
	var overloaded bool
	for i := 0; i < 5; i++ {
		err := st.Send(ctx, make([]int32, 8))
		if apierr.IsCode(err, apierr.CodeStreamOverloaded) {
			overloaded = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !overloaded {
		t.Fatal("queue never reported overload")
	}
	close(release)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPushChunkMatchesPush: feeding a record through PushChunk at any chunk
// size emits exactly the beats a per-sample Push run emits, DetectedAt
// included, from a stream's start and from a resumed BaseSample — the
// bit-identity the engine worker's chunked inner loop rests on.
func TestPushChunkMatchesPush(t *testing.T) {
	emb := testModel(t)
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "pc", Seconds: 45, Seed: 21, PVCRate: 0.1}).Leads[0]

	// One sample at a time, both sides of sigdsp.Block, the serving chunk,
	// odd multi-block sizes, the whole record in one call, and uneven sizes
	// cycled within one stream.
	chunkings := [][]int{{1}, {2}, {3}, {63}, {64}, {65}, {180}, {719}, {1024}, {len(lead)}, {1, 7, 360, 1024, 3, 719}}
	for _, base := range []int{0, 7777} {
		ref, err := New(emb, Config{BaseSample: base})
		if err != nil {
			t.Fatal(err)
		}
		var want []BeatResult
		for i, v := range lead {
			for _, b := range pushOne(ref, v) {
				// Pushed one at a time, a beat is finalized by the sample
				// just pushed.
				if b.DetectedAt != base+i {
					t.Fatalf("base %d: beat %d finalized by sample %d reports DetectedAt %d", base, b.Peak, base+i, b.DetectedAt)
				}
				want = append(want, b)
			}
		}
		want = append(want, ref.Flush()...)
		if len(want) == 0 {
			t.Fatal("no beats at all")
		}

		for _, sizes := range chunkings {
			chunked, err := New(emb, Config{BaseSample: base})
			if err != nil {
				t.Fatal(err)
			}
			var got []BeatResult
			emit := func(beats []BeatResult) { got = append(got, beats...) }
			for off, c := 0, 0; off < len(lead); c++ {
				end := min(off+sizes[c%len(sizes)], len(lead))
				chunked.PushChunk(lead[off:end], emit)
				off = end
			}
			got = append(got, chunked.Flush()...)

			if len(got) != len(want) {
				t.Fatalf("base %d chunks %v: chunked run emitted %d beats, per-sample %d", base, sizes, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("base %d chunks %v: beat %d: chunked %+v != per-sample %+v", base, sizes, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamFIFORecycled: the worker must hand the stream's FIFO backing
// array back instead of discarding it, so steady-state Sends append into
// recycled capacity. The test drives many send/drain cycles and checks the
// capacity settles instead of being re-grown from zero each drain.
func TestStreamFIFORecycled(t *testing.T) {
	eng := NewEngine(testCatalog(t, "m"), EngineConfig{Workers: 1})
	defer eng.Close()
	ctx := context.Background()

	st, err := eng.Open(ctx, "m", Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int32, 64)
	cycle := func() {
		for i := 0; i < 4; i++ {
			if err := st.Send(ctx, buf); err != nil {
				t.Fatal(err)
			}
		}
		for st.PendingSamples() > 0 {
			runtime.Gosched()
		}
	}
	for i := 0; i < 8; i++ { // warm up: FIFO capacity reaches its working size
		cycle()
	}
	st.mu.Lock()
	warm := cap(st.fifo)
	st.mu.Unlock()
	if warm == 0 {
		t.Fatal("warm FIFO has no retained capacity — backing array was discarded")
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	st.mu.Lock()
	final := cap(st.fifo)
	st.mu.Unlock()
	if final > warm {
		t.Fatalf("FIFO backing array re-grown after warm-up: cap %d -> %d", warm, final)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStress drives hundreds of streams over a small worker pool (run
// under -race in CI): every stream's beats must match a sequential
// single-pipeline run exactly (ordering and completeness through the
// sharded queues, work stealing and chunk recycling), overloads must surface
// as the typed backpressure error and be survivable by retrying, and the
// worker goroutines must all exit on Engine.Close.
func TestEngineStress(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := NewEngine(testCatalog(t, "m"), EngineConfig{Workers: 4, MaxPending: 2048})
	ctx := context.Background()

	// A few distinct records shared by many streams keeps synthesis cheap
	// while every stream still checks full beat-for-beat equality.
	const (
		streams = 160
		records = 8
	)
	leads := make([][]int32, records)
	refs := make([][]BeatResult, records)
	emb := testModel(t)
	for i := range leads {
		leads[i] = ecgsyn.Synthesize(ecgsyn.RecordSpec{
			Name: "st", Seconds: 8, Seed: uint64(300 + i), PVCRate: 0.15,
		}).Leads[0]
		pipe, err := New(emb, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range leads[i] {
			refs[i] = append(refs[i], pushOne(pipe, v)...)
		}
		refs[i] = append(refs[i], pipe.Flush()...)
		if len(refs[i]) == 0 {
			t.Fatalf("record %d: sequential reference emitted no beats", i)
		}
	}

	var overloads atomic.Int64
	results := make([][]BeatResult, streams)
	var wg sync.WaitGroup
	for si := 0; si < streams; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			lead := leads[si%records]
			st, err := eng.Open(ctx, "m", Config{}, func(beats []BeatResult) {
				results[si] = append(results[si], beats...)
			})
			if err != nil {
				t.Error(err)
				return
			}
			chunk := 97 + 53*(si%7)
			for off := 0; off < len(lead); {
				end := off + chunk
				if end > len(lead) {
					end = len(lead)
				}
				err := st.Send(ctx, lead[off:end])
				if apierr.IsCode(err, apierr.CodeStreamOverloaded) {
					overloads.Add(1)
					runtime.Gosched() // back off and retry the same chunk
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				off = end
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}(si)
	}
	wg.Wait()

	for si := range results {
		want := refs[si%records]
		if len(results[si]) != len(want) {
			t.Fatalf("stream %d: engine emitted %d beats, sequential %d", si, len(results[si]), len(want))
		}
		for i := range want {
			if results[si][i] != want[i] {
				t.Fatalf("stream %d beat %d: engine %+v != sequential %+v", si, i, results[si][i], want[i])
			}
		}
	}
	t.Logf("stress: %d streams, %d overload backoffs", streams, overloads.Load())

	eng.Close()
	// The pool's goroutines must all exit; give the scheduler a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after Engine.Close: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestEngineCloseRacesSend: shutting the engine down while producers are
// mid-Send must neither hang Close (a Send rejected at admission decrements
// the in-flight counter without enqueuing — workers must not park waiting
// for a wake that will never come) nor trip the race detector. Repeated to
// give the interleavings a chance to land in the admission window.
func TestEngineCloseRacesSend(t *testing.T) {
	cat := testCatalog(t, "m")
	for iter := 0; iter < 25; iter++ {
		// The small queue bound keeps the backlog Close must drain tiny, so
		// the iterations exercise the shutdown race rather than throughput.
		eng := NewEngine(cat, EngineConfig{Workers: 2, MaxPending: 4096})
		ctx := context.Background()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			st, err := eng.Open(ctx, "m", Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]int32, 64)
				for {
					if err := st.Send(ctx, buf); err != nil {
						if !apierr.IsCode(err, apierr.CodeStreamOverloaded) {
							return // engine closed
						}
						runtime.Gosched()
					}
				}
			}()
		}
		runtime.Gosched()
		closed := make(chan struct{})
		go func() {
			eng.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Engine.Close hung with concurrent Sends")
		}
		wg.Wait()
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	eng := NewEngine(testCatalog(b, "m"), EngineConfig{})
	defer eng.Close()
	ctx := context.Background()
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "bt", Seconds: 30, Seed: 4, PVCRate: 0.1})
	lead := rec.Leads[0]

	b.ReportAllocs()
	b.ResetTimer()
	const streams = 8
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := eng.Open(ctx, "m", Config{}, nil)
				if err != nil {
					b.Error(err)
					return
				}
				for off := 0; off < len(lead); off += 1024 {
					end := off + 1024
					if end > len(lead) {
						end = len(lead)
					}
					if err := st.Send(ctx, lead[off:end]); err != nil {
						b.Error(err)
						return
					}
				}
				if err := st.Close(); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.SetBytes(int64(streams * len(lead) * 4))
}

// BenchmarkEngineSendSteadyState measures one chunk through the recycled Send
// admission path plus the worker drain (synchronized, so the number is
// chunk latency, not queue-fill throughput). allocs/op must be 0.
func BenchmarkEngineSendSteadyState(b *testing.B) {
	eng := NewEngine(testCatalog(b, "m"), EngineConfig{Workers: 1})
	defer eng.Close()
	ctx := context.Background()
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "bs", Seconds: 60, Seed: 14, PVCRate: 0.1}).Leads[0]

	st, err := eng.Open(ctx, "m", Config{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 720
	for off := 0; off+chunk <= len(lead); off += chunk { // warm up
		if err := st.Send(ctx, lead[off:off+chunk]); err != nil {
			b.Fatal(err)
		}
	}
	for st.PendingSamples() > 0 {
		runtime.Gosched()
	}

	next := 0
	b.ReportAllocs()
	b.SetBytes(chunk * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Send(ctx, lead[next:next+chunk]); err != nil {
			b.Fatal(err)
		}
		next += chunk
		if next+chunk > len(lead) {
			next = 0
		}
		for st.PendingSamples() > 0 {
			runtime.Gosched()
		}
	}
	b.StopTimer()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

// TestEngineMaxStreams holds the open-stream accounting: a failed Open
// leaks no count, and a completed Close frees one.
func TestEngineMaxStreams(t *testing.T) {
	eng := NewEngine(testCatalog(t, "m"), EngineConfig{Workers: 1})
	defer eng.Close()
	ctx := context.Background()

	a, err := eng.Open(ctx, "m", Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Open(ctx, "no-such-model", Config{}, nil); !apierr.IsCode(err, apierr.CodeModelNotFound) {
		t.Fatalf("unknown model: %v", err)
	}
	if got := eng.OpenStreams(); got != 1 {
		t.Fatalf("OpenStreams after failed resolve = %d, want 1", got)
	}
	b, err := eng.Open(ctx, "m", Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.OpenStreams(); got != 2 {
		t.Fatalf("OpenStreams = %d, want 2", got)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Close completed (done closed), so the stream no longer counts.
	if got := eng.OpenStreams(); got != 1 {
		t.Fatalf("OpenStreams after Close = %d, want 1", got)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := eng.OpenStreams(); got != 0 {
		t.Fatalf("OpenStreams after all closed = %d, want 0", got)
	}
}

// TestEngineShutdownErrorsTyped pins the drain contract: once the engine is
// closed, Send, Close and Open all fail with the typed shutting_down error
// (the serving layer renders it as 503 + Retry-After), and a Send on a
// stream the caller already closed is the typed bad_input.
func TestEngineShutdownErrorsTyped(t *testing.T) {
	eng := NewEngine(testCatalog(t, "m"), EngineConfig{Workers: 1})
	ctx := context.Background()

	closed, err := eng.Open(ctx, "m", Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	if err := closed.Send(ctx, []int32{1, 2, 3}); !apierr.IsCode(err, apierr.CodeBadInput) {
		t.Fatalf("Send on closed stream: err = %v, want bad_input", err)
	}

	open, err := eng.Open(ctx, "m", Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()

	if err := open.Send(ctx, []int32{1, 2, 3}); !apierr.IsCode(err, apierr.CodeShuttingDown) {
		t.Fatalf("Send after engine Close: err = %v, want shutting_down", err)
	}
	if err := open.Close(); !apierr.IsCode(err, apierr.CodeShuttingDown) {
		t.Fatalf("Close after engine Close: err = %v, want shutting_down", err)
	}
	if _, err := eng.Open(ctx, "m", Config{}, nil); !apierr.IsCode(err, apierr.CodeShuttingDown) {
		t.Fatalf("Open after engine Close: err = %v, want shutting_down", err)
	}
}
