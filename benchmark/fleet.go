package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"rpbeat/internal/apierr"
	"rpbeat/internal/catalog"
	"rpbeat/internal/core"
	"rpbeat/internal/pipeline"
)

// The fleet workload: 256 patient streams opened with Engine.Open, driven
// by one open-loop generator goroutine with no HTTP in the way. See
// WORKLOADS.md for why.
const (
	fleetStreams = 256
	// satWindow is how many chunks the saturating phase keeps queued per
	// stream. Send itself would accept up to EngineConfig.MaxPending (1 M
	// samples per stream, a gigabyte across the fleet); the window keeps
	// every worker busy (256 x 8 chunks is ~0.15 s of work) at bounded memory.
	satWindow = 8
	// satWindowDur is the window the saturating drain rate is measured over.
	satWindowDur = 500 * time.Millisecond
	// warmChunks is the warm-up traffic per stream, part of set-up.
	warmChunks = 8
	// sloMs is the beat-latency p99 limit of streams_per_core.
	sloMs = 50
	// searchSteps is how many bisection phases find streams_per_core.
	searchSteps = 7
	// dueRing is the per-stream ring of chunk due times the sink reads.
	dueRing = 1024
	// lagShare is the generator-lag p99 limit, as a share of the per-stream
	// chunk period, above which a fixed-rate phase makes the run invalid:
	// past one period a stream's chunks go out back to back, so the
	// schedule, not the program, set their arrival. (Host CPU steal stalls
	// the whole VM for ~10 ms at a time, so a tighter limit rejects runs
	// for the host's sake.)
	lagShare = 1.0
	// ledgerTolerance is how much of the end-to-end cost per sample the
	// stage rows may leave unexplained before the ledger is out of tolerance.
	ledgerTolerance = 0.25
)

// fleetRates are the fixed absolute offered rates, in samples/s, at which
// beat latency is reported: 256 streams at ~5.4x and ~10.9x real time.
var fleetRates = []struct {
	name string
	rate float64
}{{"fleet_0500k", 500e3}, {"fleet_1000k", 1000e3}}

// fleetStream is one patient stream and the generator's and sink's view of
// it.
type fleetStream struct {
	id   int
	st   *pipeline.Stream
	rec  int
	head int
	sent int // samples sent; generator goroutine only

	// due and phase are written by the generator before each Send and read
	// by the sink; the engine's stream lock orders the two.
	due   [dueRing]int64
	phase [dueRing]int8

	mu    sync.Mutex // guards beats and lat (sink vs. phase accounting)
	beats []pipeline.BeatResult
	lat   map[int8][]float64 // beat latency (ms) by paced phase
}

type fleet struct {
	r       *run
	tr      *tracer
	cat     *catalog.Catalog
	eng     *pipeline.Engine
	leads   [][]int32
	streams []*fleetStream
	o       *outcome

	spansOff atomic.Bool // set while the traced run measures untraced work
	sendNs   samples     // traced: Send durations
	retries  atomic.Int64
	baseline []*fleetStream // traced: the single-worker engine's streams
	lags     []float64      // generator lag (ms) of every paced chunk
	lagValid []string       // fixed-rate phases whose lag broke lagShare
	phaseID  int8
	costs    [][]float64 // traced: replayed compute per chunk, by record
	probes   chan probe
	qwait    map[int8]*samples
	probeWG  sync.WaitGroup
	busyNs   map[int8]float64 // traced: replayed compute sent per phase
}

// probe is one queue-wait probe: a chunk whose stream is polled until its
// queue is empty.
type probe struct {
	s     *fleetStream
	phase int8
	sent  time.Time
}

func (f *fleet) openStreams(ctx context.Context, eng *pipeline.Engine) ([]*fleetStream, error) {
	out := make([]*fleetStream, fleetStreams)
	for i := range out {
		s := &fleetStream{id: i, rec: i % numRecords, head: (i / numRecords) % 2, lat: map[int8][]float64{}}
		tr := f.spans()
		start := tr.now()
		st, err := eng.Open(ctx, heads[s.head], pipeline.Config{}, s.sink(f))
		if err != nil {
			return nil, err
		}
		tr.add(0, 0, "pipeline", "open", streamReq(i), start, tr.now())
		s.st = st
		out[i] = s
	}
	return out, nil
}

func streamReq(i int) string { return fmt.Sprintf("stream-%d", i) }

// spans is the tracer, or nil while spans are off.
func (f *fleet) spans() *tracer {
	if f.spansOff.Load() {
		return nil
	}
	return f.tr
}

// sink records the served beats and, for paced chunks, each beat's latency
// from the due time of the chunk whose arrival finalized it.
func (s *fleetStream) sink(f *fleet) func([]pipeline.BeatResult) {
	return func(beats []pipeline.BeatResult) {
		tr := f.spans()
		start := tr.now()
		now := time.Now().UnixNano()
		s.mu.Lock()
		s.beats = append(s.beats, beats...)
		for _, b := range beats {
			seq := b.DetectedAt / chunkSamples
			if due := s.due[seq%dueRing]; due != 0 {
				ph := s.phase[seq%dueRing]
				s.lat[ph] = append(s.lat[ph], float64(now-due)/1e6)
			}
		}
		s.mu.Unlock()
		tr.add(0, 0, "pipeline", "sink", streamReq(s.id), start, tr.now())
	}
}

// chunk returns the stream's next chunk of its looped record.
func (f *fleet) chunk(s *fleetStream) []int32 {
	lead := f.leads[s.rec]
	off := s.sent % len(lead)
	return lead[off : off+chunkSamples]
}

// send is one op: the stream's next chunk, due at due. An unpaced chunk
// (zero due) of a measured phase counts its latency from the Send call; one
// of phase 0 (the warm-up) is not measured.
func (f *fleet) send(ctx context.Context, s *fleetStream, due time.Time, phase int8) {
	paced := !due.IsZero()
	if !paced && phase > 0 {
		due = time.Now()
	}
	seq := s.sent / chunkSamples
	if due.IsZero() {
		s.due[seq%dueRing] = 0
	} else {
		s.due[seq%dueRing] = due.UnixNano()
	}
	s.phase[seq%dueRing] = phase
	c := f.chunk(s)
	f.o.attempted++
	tr := f.spans()
	start := tr.now()
	t0 := time.Now()
	err := s.st.Send(ctx, c)
	for apierr.IsCode(err, apierr.CodeStreamOverloaded) {
		f.retries.Add(1)
		time.Sleep(100 * time.Microsecond)
		err = s.st.Send(ctx, c)
	}
	if tr != nil {
		f.sendNs.add(float64(time.Since(t0)))
		tr.add(0, 0, "pipeline", "send", streamReq(s.id), start, tr.now())
	}
	if err != nil {
		f.o.fail(string(apierr.From(err).Code), "stream %d send: %v", s.id, err)
		return
	}
	if f.costs != nil && paced {
		f.busyNs[phase] += f.costs[s.rec][(s.sent%len(f.leads[s.rec]))/chunkSamples]
		if seq%64 == 0 {
			select {
			case f.probes <- probe{s: s, phase: phase, sent: time.Now()}:
			default:
			}
		}
	}
	s.sent += len(c)
}

// pending is the streams' summed queue depth in samples.
func pending(streams []*fleetStream) int {
	n := 0
	for _, s := range streams {
		n += s.st.PendingSamples()
	}
	return n
}

// drain waits until every queue is empty and the last drained chunks have
// been processed.
func drain(streams []*fleetStream) {
	for pending(streams) > 0 {
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
}

// saturate sends as fast as the engine drains, keeping satWindow chunks
// queued per stream, and returns the drain rate in samples/s and the beat
// latency p50 in ms (from the Send of the finalizing chunk).
func (f *fleet) saturate(ctx context.Context, streams []*fleetStream, d time.Duration) (float64, float64) {
	f.phaseID++
	ph := f.phaseID
	p0 := pending(streams)
	// The drain rate is taken per satWindowDur window and reported as the
	// median, so a burst of interference on a shared host moves it less.
	var rates []float64
	sent, winSent, winPending := 0, 0, p0
	start := time.Now()
	winStart := start
	for time.Since(start) < d {
		progress := false
		for _, s := range streams {
			if s.st.PendingSamples() >= satWindow*chunkSamples {
				continue
			}
			f.send(ctx, s, time.Time{}, ph)
			sent += chunkSamples
			progress = true
		}
		if !progress {
			time.Sleep(100 * time.Microsecond)
		}
		if now := time.Now(); now.Sub(winStart) >= satWindowDur {
			p := pending(streams)
			rates = append(rates, float64(sent-winSent-(p-winPending))/now.Sub(winStart).Seconds())
			winStart, winSent, winPending = now, sent, p
		}
	}
	rate := median(rates)
	drain(streams)
	var lat []float64
	for _, s := range streams {
		s.mu.Lock()
		lat = append(lat, s.lat[ph]...)
		delete(s.lat, ph)
		s.mu.Unlock()
	}
	return rate, quantile(lat, 0.5)
}

// phaseResult is one paced phase's outcome.
type phaseResult struct {
	phase  int8
	lat    []float64 // beat latencies, ms
	p50    float64
	p99    float64
	grew   bool
	lagP99 float64
}

func (p phaseResult) meets() bool { return len(p.lat) > 0 && p.p99 <= sloMs && !p.grew }

// paced offers rate samples/s for d: fleet chunk j (stream j mod 256) is
// due at start + j*interval, so each stream's chunks are evenly staggered
// against the others'. Latencies count from the due time.
func (f *fleet) paced(ctx context.Context, rate float64, d time.Duration) phaseResult {
	f.phaseID++
	ph := f.phaseID
	interval := time.Duration(float64(chunkSamples) / rate * 1e9)
	n := int(d / interval)
	var backlog []int
	var lags []float64
	start := time.Now()
	nextCheck := start
	for j := 0; j < n; j++ {
		due := start.Add(time.Duration(j) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lags = append(lags, float64(time.Since(due))/1e6)
		f.send(ctx, f.streams[j%fleetStreams], due, ph)
		if now := time.Now(); now.After(nextCheck) {
			backlog = append(backlog, pending(f.streams))
			nextCheck = now.Add(25 * time.Millisecond)
		}
	}
	drain(f.streams)
	res := phaseResult{phase: ph}
	for _, s := range f.streams {
		s.mu.Lock()
		res.lat = append(res.lat, s.lat[ph]...)
		delete(s.lat, ph)
		s.mu.Unlock()
	}
	res.p50 = quantile(res.lat, 0.5)
	res.p99 = quantile(res.lat, 0.99)
	if q := len(backlog) / 4; q > 0 {
		first := sumInts(backlog[:2*q]) / float64(2*q)
		last := sumInts(backlog[len(backlog)-q:]) / float64(q)
		res.grew = last > first+fleetStreams*chunkSamples
	}
	res.lagP99 = quantile(append([]float64(nil), lags...), 0.99)
	f.lags = append(f.lags, lags...)
	return res
}

func sumInts(v []int) float64 {
	s := 0
	for _, x := range v {
		s += x
	}
	return float64(s)
}

// setup builds catalog, engine and streams and runs the warm-up.
func (f *fleet) setup(ctx context.Context) error {
	cat, err := newCatalog()
	if err != nil {
		return err
	}
	f.cat = cat
	f.eng = pipeline.NewEngine(cat, pipeline.EngineConfig{})
	if f.streams, err = f.openStreams(ctx, f.eng); err != nil {
		return err
	}
	for k := 0; k < warmChunks; k++ {
		for _, s := range f.streams {
			f.send(ctx, s, time.Time{}, 0)
		}
	}
	drain(f.streams)
	return nil
}

func (f *fleet) teardown() {
	for _, s := range f.streams {
		s.st.Close()
	}
	f.eng.Close()
}

func runFleet(r *run) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()
	f := &fleet{r: r, tr: newTracer(r.trace), leads: synthRecords(r.seed), o: o,
		qwait: map[int8]*samples{}, busyNs: map[int8]float64{}}
	nproc := float64(runtime.GOMAXPROCS(0))

	heap0 := liveHeapBytes()
	if _, setupS, err := timeSetup(func() (*fleet, error) {
		f.o.attempted = 0
		return f, f.setup(ctx)
	}, func(f *fleet) { f.teardown() }); err != nil {
		return nil, err
	} else {
		o.metrics["setup_s"] = setupS
	}
	defer f.eng.Close()
	heapOpen := liveHeapBytes()

	var embs [2]*core.Embedded
	for h, name := range heads {
		e, err := embedded(f.cat, name)
		if err != nil {
			return nil, err
		}
		embs[h] = e
	}
	var (
		ledger  streamLedger
		replays []*streamCost
	)
	if r.trace {
		// Stage replay first, outside the timed phases: its per-chunk
		// compute feeds busy_frac, and its beats must equal the served ones.
		costs := make([]*streamCost, len(f.leads))
		replayStream(f.leads[0], embs) // warm
		for i, lead := range f.leads {
			c, err := replayStream(lead, embs)
			if err != nil {
				return nil, err
			}
			costs[i] = c
			f.costs = append(f.costs, c.chunkNs)
		}
		ledger, replays = sumStream(costs), costs
		f.probes = make(chan probe, 1)
		f.probeWG.Add(1)
		go f.runProber()
	}

	T := time.Duration(r.seconds * float64(time.Second))
	phase := T * 6 / 100
	wall0 := time.Now()
	samples0 := f.totalSent()

	var untracedSat float64
	if r.trace {
		// The tracing overhead: the same saturating phase with and without
		// spans on Send and the sink.
		f.spansOff.Store(true)
		untracedSat, _ = f.saturate(ctx, f.streams, T/10)
		f.spansOff.Store(false)
	}
	sat, satP50 := f.saturate(ctx, f.streams, T*16/100)
	o.notef("fleet saturating drain: %.0f samples/s (%d streams, %d workers), beat latency p50 %.2f ms", sat, fleetStreams, int(nproc), satP50)

	// Fixed absolute rates: the latency rows, and the CPU cost per sample
	// at a load the schedule, not the program, sets.
	fixed := map[string]phaseResult{}
	cpu0, fixed0 := cpuTime(), f.totalSent()
	for _, fr := range fleetRates {
		res := f.paced(ctx, fr.rate, phase)
		fixed[fr.name] = res
		period := float64(fleetStreams*chunkSamples) / fr.rate * 1e3
		if res.lagP99 > lagShare*period {
			f.lagValid = append(f.lagValid, fmt.Sprintf("%s: generator lag p99 %.2f ms > %.0f%% of the %.1f ms chunk period",
				fr.name, res.lagP99, 100*lagShare, period))
		}
		o.notef("fleet %s: %d beats, latency p50 %.3f ms p99 %.3f ms, backlog grew=%v, lag p99 %.3f ms",
			fr.name, len(res.lat), res.p50, res.p99, res.grew, res.lagP99)
	}
	cpuFixed := float64(cpuTime()-cpu0) / float64(f.totalSent()-fixed0)

	// streams_per_core: bisection between a fixed floor (256 real-time
	// streams) and the saturating rate for the highest rate meeting the SLO.
	lo, hi := float64(fleetStreams)*fs, sat
	for i := 0; i < searchSteps && hi > lo; i++ {
		mid := (lo + hi) / 2
		res := f.paced(ctx, mid, phase)
		ok := res.meets()
		o.notef("fleet search %.0f samples/s: p99 %.2f ms, backlog grew=%v, lag p99 %.2f ms -> meets=%v",
			mid, res.p99, res.grew, res.lagP99, ok)
		if !ok {
			// One stall (a collection, a descheduled generator) can push a
			// short phase's p99 over the limit far below the knee: a rate
			// fails only if a second phase at it fails too.
			res = f.paced(ctx, mid, phase)
			ok = res.meets()
			o.notef("fleet search %.0f samples/s (again): p99 %.2f ms, backlog grew=%v, lag p99 %.2f ms -> meets=%v",
				mid, res.p99, res.grew, res.lagP99, ok)
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	spc := lo / fs / nproc

	wall := time.Since(wall0).Seconds()
	samplesRun := f.totalSent() - samples0
	heapRun := liveHeapMB() - f.retainedMB()

	o.metrics["live_heap_mb"] = heapRun
	o.metrics["cpu_ns_per_sample"] = cpuFixed
	o.metrics["goodput_per_s"] = sat
	o.metrics["streams_per_core"] = spc
	o.metrics["latency_p50_ms"] = satP50
	o.notef("fleet_samples_per_s %.0f samples/s", sat)
	o.notef("streams_per_core %.1f streams (SLO p99 <= %d ms, no backlog growth)", spc, sloMs)
	o.notef("timed phase %.1f s wall, %.0f samples", wall, float64(samplesRun))
	if len(f.lagValid) > 0 {
		o.invalid = fmt.Sprint(f.lagValid)
	}

	if r.trace {
		close(f.probes)
		f.probeWG.Wait()
		f.layerRows(ledger, fixed, sat, untracedSat, heapOpen-heap0, nproc)
	}

	// Correctness gate: close every stream (flushing it), then compare each
	// stream's beats with BatchClassify over what it was sent.
	delay := f.streams[0].st.Pipeline().Delay()
	for _, s := range f.streams {
		if err := s.st.Close(); err != nil {
			o.fail(string(apierr.From(err).Code), "stream %d close: %v", s.id, err)
		}
	}
	if err := f.checkReference(embs, delay); err != nil {
		return nil, err
	}
	o.metrics["ok_frac"] = 1 - float64(o.failed)/float64(o.attempted)
	if r.trace {
		f.checkReplay(replays)
		n, dropped, err := f.tr.write(fmt.Sprintf("%s/trace-fleet.jsonl", r.traceDir))
		if err != nil {
			return nil, err
		}
		o.notef("trace: %d spans written, %d dropped", n, dropped)
	}
	return o, nil
}

// retainedMB is the heap the benchmark itself holds: every served beat,
// kept for the correctness gate until the streams close, and the generator
// lag of every paced chunk. Both grow with the samples a run happens to
// send, so live_heap_mb leaves them out.
func (f *fleet) retainedMB() float64 {
	n := cap(f.lags) * int(unsafe.Sizeof(float64(0)))
	for _, s := range f.streams {
		s.mu.Lock()
		n += cap(s.beats) * int(unsafe.Sizeof(pipeline.BeatResult{}))
		s.mu.Unlock()
	}
	return float64(n) / (1 << 20)
}

func (f *fleet) totalSent() int {
	n := 0
	for _, s := range f.streams {
		n += s.sent
	}
	return n
}

// checkReference is the fleet's correctness gate: every stream's beats
// (position and class) equal pipeline.BatchClassify over its looped record,
// except within Delay() samples of the end.
func (f *fleet) checkReference(embs [2]*core.Embedded, delay int) error {
	all := append(append([]*fleetStream(nil), f.streams...), f.baseline...)
	longest := map[[2]int]int{}
	for _, s := range all {
		k := [2]int{s.rec, s.head}
		longest[k] = max(longest[k], s.sent)
	}
	type key = [2]int
	refs := map[key][]pipeline.BeatResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, len(longest))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for k, n := range longest {
		wg.Add(1)
		go func(k key, n int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			b, err := pipeline.BatchClassify(context.Background(), embs[k[1]], looped(f.leads[k[0]], n), pipeline.Config{})
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			refs[k] = b
			mu.Unlock()
		}(k, n)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	for _, s := range all {
		s.mu.Lock()
		msg := sameBeats(s.beats, refs[key{s.rec, s.head}], s.sent-delay)
		s.mu.Unlock()
		if msg != "" {
			f.o.mismatch("stream %d (record %d, %s head, %d samples): %s", s.id, s.rec, heads[s.head], s.sent, msg)
		}
	}
	return nil
}

// checkReplay holds the stage replay to the served beats: every beat a
// stream finalized within its first pass over the record equals the
// replay's (position, class and finalizing sample).
func (f *fleet) checkReplay(costs []*streamCost) {
	bad := 0
	for _, s := range f.streams {
		n := len(f.leads[s.rec])
		s.mu.Lock()
		got := s.beats
		k := 0
		for k < len(got) && got[k].DetectedAt < n {
			k++
		}
		same := slices.Equal(got[:k], costs[s.rec].beats[s.head])
		s.mu.Unlock()
		if !same {
			bad++
			f.o.notef("stage replay differs from the beats served on stream %d", s.id)
		}
	}
	f.o.notef("stage replay: %d of %d streams differ from the served beats", bad, len(f.streams))
	if bad > 0 {
		f.o.invalid = "the stage replay does not reproduce the served beats, so its timings are not the served work's"
	}
}

// runProber polls each probe chunk's stream until its queue is empty: the
// chunk's wait for a worker. (Stream.PendingSamples drops when a worker
// takes the chunk, before its compute, so the figure is queue wait alone.)
func (f *fleet) runProber() {
	defer f.probeWG.Done()
	for p := range f.probes {
		for p.s.st.PendingSamples() > 0 {
			time.Sleep(20 * time.Microsecond)
		}
		s := f.qwait[p.phase]
		if s == nil {
			s = &samples{}
			f.qwait[p.phase] = s
		}
		s.add(float64(time.Since(p.sent)) / 1e6)
	}
}

// layerRows fills the fleet's per-layer rows from the traced run.
func (f *fleet) layerRows(l streamLedger, fixed map[string]phaseResult, sat, untracedSat, heapOpen, nproc float64) {
	m := f.o.metrics
	m["sigdsp.stream_filter_ns_per_sample"] = l.filterNs
	m["sigdsp.stream_dwt_ns_per_sample"] = l.dwtNs
	m["peak.stream_detect_ns_per_sample"] = l.detectSelfNs
	m["peak.beats_per_ksample"] = 1000 * l.beatsPerSample
	m["core.classify_ns_per_beat"] = l.classNs[0]
	m["bitemb.classify_ns_per_beat"] = l.classNs[1]
	sendNs := f.sendNs.take()
	m["pipeline.send_ns_p50"] = median(sendNs)
	m["pipeline.send_retries"] = float64(f.retries.Load())
	m["pipeline.delay_samples"] = float64(f.streams[0].st.Pipeline().Delay())
	m["pipeline.heap_bytes_per_stream"] = heapOpen / fleetStreams
	top := fleetRates[len(fleetRates)-1]
	for _, fr := range fleetRates {
		res := fixed[fr.name]
		m["load.beat_latency_ms_p50."+fr.name] = res.p50
		m["load.beat_latency_ms_p99."+fr.name] = res.p99
		m["load.beat_latency_ms_p999."+fr.name] = quantile(res.lat, 0.999)
		m["load.beat_latency_count."+fr.name] = float64(len(res.lat))
	}
	// Queue wait and busy share at the highest fixed rate.
	topPhase := fixed[top.name].phase
	if q := f.qwait[topPhase]; q != nil {
		v := q.take()
		m["pipeline.queue_wait_ms_p50"] = quantile(v, 0.5)
		m["pipeline.queue_wait_ms_p99"] = quantile(v, 0.99)
	}
	phaseWall := float64(time.Duration(f.r.seconds*float64(time.Second)) * 6 / 100)
	m["pipeline.busy_frac"] = f.busyNs[topPhase] / (nproc * phaseWall)
	m["load.gen_lag_ms_p50"] = quantile(f.lags, 0.5)
	m["load.gen_lag_ms_p99"] = quantile(f.lags, 0.99)

	// The ledger: at saturation every core spends nproc/sat seconds per
	// sample; the stage rows and Send must account for it.
	total := nproc * 1e9 / untracedSat
	stages := l.perSampleNs() + median(sendNs)/chunkSamples
	m["pipeline.overhead_ns_per_sample"] = total - stages
	m["ledger.residual_frac"] = (total - stages) / total
	if r := (total - stages) / total; r >= -ledgerTolerance && r <= ledgerTolerance {
		m["ledger.within_tolerance"] = 1
	}
	m["trace.overhead_frac"] = 1 - sat/untracedSat

	// The single-worker baseline: a fresh one-worker engine, the same
	// streams' records, saturated for the same share of the run.
	eng1 := pipeline.NewEngine(f.cat, pipeline.EngineConfig{Workers: 1})
	defer eng1.Close()
	f.spansOff.Store(true)
	streams1, err := f.openStreams(context.Background(), eng1)
	if err == nil {
		m["pipeline.drain_1w_samples_per_s"], _ = f.saturate(context.Background(), streams1, time.Duration(f.r.seconds*float64(time.Second))/10)
		for _, s := range streams1 {
			s.st.Close()
		}
		f.baseline = streams1
	}
	f.spansOff.Store(false)
	f.o.notef("ledger (ns per sample per core at saturation %.0f): filter %.1f + dwt %.1f + detect %.1f + classify %.2f + send %.2f = %.1f of %.1f; residual %.1f (%.1f%%, tolerance %.0f%%)",
		untracedSat, l.filterNs, l.dwtNs, l.detectSelfNs, l.beatsPerSample*(l.classNs[0]+l.classNs[1])/2,
		median(sendNs)/chunkSamples, stages, total, total-stages, 100*(total-stages)/total, 100*ledgerTolerance)
	f.o.notef("single-worker drain %.0f samples/s; tracing overhead %.1f%% (traced %.0f vs untraced %.0f samples/s); busy at %s %.2f",
		m["pipeline.drain_1w_samples_per_s"], 100*m["trace.overhead_frac"], sat, untracedSat, top.name, m["pipeline.busy_frac"])
}
