package pipeline

// Engine multiplexes many independent patient streams over a fixed worker
// pool — the serving shape of the ROADMAP's north star. Each stream owns one
// Pipeline; a stream is only ever run by one worker at a time (so pipelines
// need no locks and per-stream ordering is preserved), while different
// streams run in parallel across the pool. Models come from a
// catalog.Catalog: Open resolves a "name" or "name@vN" reference against
// the catalog's current snapshot (one atomic load) and pins the resolved
// version for the stream's whole life — an admin deleting or superseding a
// model never breaks an in-flight stream, the next Open simply resolves the
// new state. core.Embedded is read-only after Quantize, so any number of
// streams classify against the same tables concurrently.
//
// Scheduling is sharded so that neither Send admission nor worker dispatch
// contends on a process-wide lock (see DESIGN.md, "Sharded engine
// scheduler"):
//
//   - Every worker owns a run-queue shard. A stream is assigned a home shard
//     at Open (round-robin) and is always enqueued there; an idle worker
//     first drains its own shard, then steals from the others, so load
//     imbalance between shards self-corrects.
//   - Stream state (the idle/queued/running/dirty machine, the chunk FIFO,
//     the pending-sample count) is guarded by a per-stream mutex; shard
//     queues are guarded by per-shard mutexes. Two Sends on different
//     streams, or a Send racing a worker on a different stream, share no
//     lock at all.
//   - Workers park on a per-worker wake token when every queue is empty.
//     Parking is two-phase (register as idle, then re-scan all shards) and
//     producers enqueue before consulting the idle list, so a wake-up can
//     never be lost between a worker's last scan and its wait.
//
// Chunk buffers are recycled per stream: Send copies the caller's samples
// into one of the stream's spare buffers and the worker hands it back after
// the drain, so a steady-state Send performs zero heap allocations in every
// build, the race build included (enforced by TestEngineSendZeroAlloc),
// matching the Pipeline.Push invariant. A sync.Pool would not hold that: the
// race build drops a random share of its Puts, and a GC empties it.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"rpbeat/internal/apierr"
	"rpbeat/internal/catalog"
)

// EngineConfig sizes the engine.
type EngineConfig struct {
	// Workers bounds concurrent stream processing; default NumCPU.
	Workers int
	// MaxPending bounds the per-stream queue of un-processed input, in
	// samples (so the memory bound holds whatever chunk sizes the producer
	// picks). A Send that would exceed it fails with
	// apierr.CodeStreamOverloaded — the producer outran the worker pool
	// and must back off; nothing is dropped silently. A single chunk
	// larger than the bound is still admitted when the queue is empty, so
	// oversized chunks stall rather than starve. Default 1<<20 samples
	// (4 MB of int32, ~48 minutes of one 360 Hz lead); negative means
	// unbounded.
	MaxPending int
}

// defaultMaxPending is the per-stream queue bound, in samples, when the
// configuration leaves it zero.
const defaultMaxPending = 1 << 20

// streamState is the scheduling state of a Stream, guarded by Stream.mu.
type streamState uint8

const (
	stateIdle    streamState = iota // no pending work, not queued
	stateQueued                     // in a shard's run queue
	stateRunning                    // a worker is processing it
	stateDirty                      // running, and new work arrived meanwhile
)

// shard is one worker's run queue. head indexes the logical front so pops
// are O(1) without shrinking the backing array; the array is reset (not
// discarded) whenever the queue drains, so steady-state enqueues reuse it.
type shard struct {
	mu   sync.Mutex
	runq []*Stream
	head int
}

// pop removes and returns the front stream, or nil when the shard is empty.
func (sh *shard) pop() *Stream {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.head == len(sh.runq) {
		return nil
	}
	s := sh.runq[sh.head]
	sh.runq[sh.head] = nil
	sh.head++
	if sh.head == len(sh.runq) {
		sh.runq = sh.runq[:0]
		sh.head = 0
	} else if sh.head >= 32 && sh.head > len(sh.runq)/2 {
		// Compact the consumed prefix once it dominates the array, so a
		// shard that never fully drains (sustained backlog) cannot grow its
		// backing array without bound. The half-full threshold keeps the
		// copy amortized O(1) per pop.
		n := copy(sh.runq, sh.runq[sh.head:])
		for i := n; i < len(sh.runq); i++ {
			sh.runq[i] = nil
		}
		sh.runq = sh.runq[:n]
		sh.head = 0
	}
	return s
}

// push appends a stream to the shard's queue.
func (sh *shard) push(s *Stream) {
	sh.mu.Lock()
	sh.runq = append(sh.runq, s)
	sh.mu.Unlock()
}

// worker is one pool goroutine with its own run-queue shard, wake token and
// drain scratch (the chunk list it copies out of a stream's FIFO, reused
// across iterations so draining allocates nothing).
type worker struct {
	id     int
	shard  shard
	wake   chan struct{} // capacity 1: a binary wake token
	chunks [][]int32     // drain scratch, owned by the worker goroutine
}

// Engine runs streams over its worker pool.
type Engine struct {
	cat        *catalog.Catalog
	maxPending int

	// open counts streams between Open and completion (the done close).
	open atomic.Int64

	workers []*worker
	next    atomic.Uint64 // round-robin home-shard assignment for Open

	// inflight counts Send/Close calls between admission and enqueue
	// completion. Workers may only exit once shutdown is set, inflight is
	// zero and a full scan finds every shard empty — the counter closes the
	// race where a Send admitted before shutdown publishes its chunk after
	// a worker's final scan.
	inflight atomic.Int64
	shutdown atomic.Bool

	idleMu sync.Mutex
	idle   []*worker // parked workers (LIFO: the most recently parked wakes first)

	wg sync.WaitGroup
}

// NewEngine starts an engine over the catalog's models.
func NewEngine(cat *catalog.Catalog, cfg EngineConfig) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.MaxPending == 0 {
		cfg.MaxPending = defaultMaxPending
	}
	e := &Engine{cat: cat, maxPending: cfg.MaxPending}
	e.workers = make([]*worker, cfg.Workers)
	for i := range e.workers {
		e.workers[i] = &worker{id: i, wake: make(chan struct{}, 1)}
	}
	e.wg.Add(cfg.Workers)
	for _, w := range e.workers {
		go e.workerLoop(w)
	}
	return e
}

// Catalog returns the engine's model catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Stream is one patient's sample feed into the engine. Send and Close may be
// called from any goroutine (but not concurrently with each other); the sink
// is invoked serially, in input order, from worker goroutines.
type Stream struct {
	eng   *Engine
	entry *catalog.Entry
	pipe  *Pipeline
	sink  func([]BeatResult)
	home  *worker // the shard this stream enqueues to

	// Guarded by mu.
	mu      sync.Mutex
	state   streamState
	fifo    [][]int32 // backing array recycled across drains
	pending int       // samples queued or reserved by an in-flight Send
	closing bool
	flushed bool
	// spare holds drained chunk buffers for the next Sends. A stream runs
	// on one worker at a time, so two cover a send-after-drain loop; Sends
	// that outrun them allocate.
	spare  [2][]int32
	nspare int

	done chan struct{}
}

// Open creates a stream classifying against the referenced model ("" for
// the catalog default, "name" for its latest version, "name@vN" pinned).
// The resolved version stays with the stream until Close regardless of
// later catalog mutations. The sink receives every batch of finalized
// beats; the slice passed to it is only valid for the duration of the call.
func (e *Engine) Open(ctx context.Context, model string, cfg Config, sink func([]BeatResult)) (*Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, apierr.From(err)
	}
	if e.shutdown.Load() {
		return nil, errShuttingDown
	}
	entry, err := e.cat.Snapshot().Resolve(model)
	if err != nil {
		return nil, err
	}
	pipe, err := New(entry.Emb, cfg)
	if err != nil {
		return nil, err
	}
	if sink == nil {
		sink = func([]BeatResult) {}
	}
	e.open.Add(1)
	home := e.workers[int((e.next.Add(1)-1)%uint64(len(e.workers)))]
	return &Stream{eng: e, entry: entry, pipe: pipe, sink: sink, home: home, done: make(chan struct{})}, nil
}

// OpenStreams reports how many streams are currently open (Open through
// Close completion).
func (e *Engine) OpenStreams() int { return int(e.open.Load()) }

// Entry returns the catalog entry the stream was opened against (the
// version is pinned, so this is stable for the stream's life).
func (s *Stream) Entry() *catalog.Entry { return s.entry }

// PendingSamples reports how many samples are queued (or reserved by an
// in-flight Send) but not yet drained by a worker — the quantity
// EngineConfig.MaxPending bounds. Zero means every sent sample has been
// pushed through the pipeline.
func (s *Stream) PendingSamples() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// Send enqueues a chunk of raw ADC samples. The slice is copied (into a
// recycled buffer, so a steady-state Send allocates nothing), and the caller
// may reuse it immediately. A canceled context fails the send before the
// chunk is queued; a full stream queue fails it with
// apierr.CodeStreamOverloaded. Admission is decided before the chunk is
// copied, so a rejected Send (e.g. in a backpressure retry loop) costs
// neither an allocation nor a copy.
//
//rpbeat:allocfree
func (s *Stream) Send(ctx context.Context, samples []int32) error {
	if err := ctx.Err(); err != nil {
		return apierr.From(err)
	}
	if len(samples) == 0 {
		return nil
	}
	e := s.eng
	e.inflight.Add(1)
	defer e.inflight.Add(-1)

	// Admission: reserve queue space under the stream lock, without the copy.
	s.mu.Lock()
	if err := s.admitLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if e.maxPending > 0 && s.pending > 0 && s.pending+len(samples) > e.maxPending {
		s.mu.Unlock()
		return errStreamOverloaded
	}
	s.pending += len(samples)
	buf := s.takeSpareLocked()
	s.mu.Unlock()

	buf = append(buf[:0], samples...)

	s.mu.Lock()
	if err := s.admitLocked(); err != nil {
		// Close or engine shutdown raced the copy: release the reservation.
		s.pending -= len(samples)
		s.putSpareLocked(buf)
		s.mu.Unlock()
		return err
	}
	s.fifo = append(s.fifo, buf)
	enq := s.scheduleLocked()
	s.mu.Unlock()
	if enq {
		e.enqueue(s)
	}
	return nil
}

// errStreamOverloaded rejects a Send when the stream queue is at
// MaxPending. Preallocated: the refusal fires exactly when the server is
// already at its limit, and Send's contract says a rejected call costs
// neither an allocation nor a copy — building a fresh error (with a
// formatted pending count) per refusal broke that on the one path where
// allocation pressure hurts most. Callers needing the live queue depth
// have Stream.PendingSamples.
var errStreamOverloaded = apierr.New(apierr.CodeStreamOverloaded,
	"stream queue full; back off and retry")

// errShuttingDown rejects work arriving after Engine.Close: typed, so the
// serving layer renders a drain as the shutting_down contract error (503 +
// Retry-After), never a reset or an opaque 500.
var errShuttingDown = apierr.New(apierr.CodeShuttingDown,
	"engine is shutting down; no new work is admitted")

// errStreamClosed rejects a Send after the stream's own Close — a caller
// ordering bug, typed as the client's bad_input.
var errStreamClosed = apierr.New(apierr.CodeBadInput, "send on closed stream")

// admitLocked checks the conditions that permanently reject a Send.
// Callers must hold s.mu.
func (s *Stream) admitLocked() error {
	if s.closing {
		return errStreamClosed
	}
	if s.eng.shutdown.Load() {
		return errShuttingDown
	}
	return nil
}

// takeSpareLocked hands out a recycled chunk buffer, nil when there is none.
// Callers must hold s.mu.
func (s *Stream) takeSpareLocked() []int32 {
	if s.nspare == 0 {
		return nil
	}
	s.nspare--
	buf := s.spare[s.nspare]
	s.spare[s.nspare] = nil
	return buf
}

// putSpareLocked keeps a drained chunk buffer for a later Send, or drops it
// when the spares are full. Callers must hold s.mu.
func (s *Stream) putSpareLocked(buf []int32) {
	if s.nspare < len(s.spare) {
		s.spare[s.nspare] = buf
		s.nspare++
	}
}

// scheduleLocked advances the state machine for newly arrived work and
// reports whether the caller must enqueue the stream (after releasing s.mu).
// Callers must hold s.mu.
func (s *Stream) scheduleLocked() bool {
	switch s.state {
	case stateIdle:
		s.state = stateQueued
		return true
	case stateRunning:
		s.state = stateDirty
	}
	return false
}

// Close flushes the stream (the final beats reach the sink before Close
// returns) and releases it. Further Sends fail. Streams must be closed
// before the engine is.
func (s *Stream) Close() error {
	e := s.eng
	e.inflight.Add(1)
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		e.inflight.Add(-1)
		<-s.done
		return nil
	}
	if e.shutdown.Load() {
		s.mu.Unlock()
		e.inflight.Add(-1)
		return errShuttingDown
	}
	s.closing = true
	enq := s.scheduleLocked()
	s.mu.Unlock()
	if enq {
		e.enqueue(s)
	}
	e.inflight.Add(-1)
	<-s.done
	return nil
}

// Pipeline exposes the underlying pipeline for delay accounting. Mutating
// calls (Push, Flush) are the engine's alone; callers may only use
// read-only accessors such as Delay.
func (s *Stream) Pipeline() *Pipeline { return s.pipe }

// enqueue publishes a stream (already transitioned to stateQueued by the
// caller) on its home shard and wakes a parked worker if there is one. The
// push happens before the idle-list check, pairing with the worker's
// register-then-rescan parking order: whichever side moves second sees the
// other's effect, so the wake-up cannot be lost.
func (e *Engine) enqueue(s *Stream) {
	s.home.shard.push(s)
	e.wakeOne()
}

// wakeOne pops one parked worker and hands it a wake token. The token
// channel has capacity 1 and the send never blocks: a worker that already
// holds an unconsumed token simply isn't re-signaled.
func (e *Engine) wakeOne() {
	e.idleMu.Lock()
	var w *worker
	if n := len(e.idle); n > 0 {
		w = e.idle[n-1]
		e.idle = e.idle[:n-1]
	}
	e.idleMu.Unlock()
	if w != nil {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// removeIdle takes the worker off the idle list if it is still there (a
// producer may already have popped it when handing it a token).
func (e *Engine) removeIdle(w *worker) {
	e.idleMu.Lock()
	for i, x := range e.idle {
		if x == w {
			e.idle = append(e.idle[:i], e.idle[i+1:]...)
			break
		}
	}
	e.idleMu.Unlock()
}

// grab finds runnable work: the worker's own shard first, then the other
// shards in ring order (work stealing).
func (e *Engine) grab(w *worker) *Stream {
	if s := w.shard.pop(); s != nil {
		return s
	}
	n := len(e.workers)
	for i := 1; i < n; i++ {
		if s := e.workers[(w.id+i)%n].shard.pop(); s != nil {
			return s
		}
	}
	return nil
}

// Close shuts the worker pool down after the queues drain. Streams should be
// Closed first; chunks still queued are processed, but un-Closed streams are
// never flushed.
func (e *Engine) Close() {
	e.shutdown.Store(true)
	for _, w := range e.workers {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	e.wg.Wait()
}

func (e *Engine) workerLoop(w *worker) {
	defer e.wg.Done()
	for {
		if s := e.grab(w); s != nil {
			e.run(w, s)
			continue
		}
		// Park in two phases: register as idle first, then re-scan every
		// shard. A producer enqueues before consulting the idle list, so an
		// enqueue that the re-scan misses necessarily sees this worker in
		// the list and wakes it — no lost wake-ups.
		e.idleMu.Lock()
		e.idle = append(e.idle, w)
		e.idleMu.Unlock()
		if s := e.grab(w); s != nil {
			e.removeIdle(w)
			e.run(w, s)
			continue
		}
		if e.shutdown.Load() {
			// Never park after shutdown: an in-flight Send that gets
			// rejected at admission decrements the counter without enqueuing
			// anything, so no wake token would ever arrive. The counter is
			// only held across admission + enqueue (microseconds), so
			// yield-spinning until it drains is bounded.
			e.removeIdle(w)
			if e.inflight.Load() != 0 {
				runtime.Gosched()
				continue
			}
			// The scan below runs after the inflight load: any Send or Close
			// admitted before shutdown has either published its work (visible
			// to this scan) or still held the counter (visible above).
			if s := e.grab(w); s != nil {
				e.run(w, s)
				continue
			}
			return
		}
		<-w.wake
		// The token may be stale (work was grabbed in the re-scan of an
		// earlier park); drop any leftover idle registration and re-loop.
		e.removeIdle(w)
	}
}

// maxRunChunks bounds how many queued chunks one dispatch drains. A stream
// with a deep backlog is requeued after this batch instead of holding its
// worker until the FIFO empties, so one slow consumer cannot starve the
// other streams sharing the pool — this is what keeps chunk p99 latency
// bounded under mixed load (the repo benchmark's fleet workload reports it
// as pipeline.queue_wait_ms_p99).
const maxRunChunks = 32

// run processes one queued stream: it drains up to maxRunChunks of the FIFO
// into the worker's scratch under the stream lock, pushes every chunk
// through the pipeline lock-free, then keeps their buffers as the stream's
// spares. The state machine guarantees no other worker holds this stream.
func (e *Engine) run(w *worker, s *Stream) {
	s.mu.Lock()
	s.state = stateRunning
	take := len(s.fifo)
	if take > maxRunChunks {
		take = maxRunChunks
	}
	w.chunks = append(w.chunks[:0], s.fifo[:take]...)
	for i := 0; i < take; i++ {
		s.pending -= len(s.fifo[i]) // reservations of in-flight Sends stay counted
		s.fifo[i] = nil
	}
	rest := copy(s.fifo, s.fifo[take:])
	for i := rest; i < len(s.fifo); i++ {
		s.fifo[i] = nil
	}
	s.fifo = s.fifo[:rest] // keep the backing array for the next Sends
	flush := s.closing && !s.flushed && rest == 0
	if flush {
		s.flushed = true
	}
	s.mu.Unlock()

	for _, c := range w.chunks {
		s.pipe.PushChunk(c, s.sink)
	}
	if flush {
		if beats := s.pipe.Flush(); len(beats) > 0 {
			s.sink(beats)
		}
	}

	s.mu.Lock()
	for i, c := range w.chunks {
		s.putSpareLocked(c)
		w.chunks[i] = nil
	}
	requeue := s.state == stateDirty || len(s.fifo) > 0 || (s.closing && !s.flushed)
	if requeue {
		s.state = stateQueued
	} else {
		s.state = stateIdle
	}
	s.mu.Unlock()
	if requeue {
		e.enqueue(s)
	}
	if flush {
		// The stream is complete: it no longer counts as open.
		e.open.Add(-1)
		close(s.done)
	}
}
