// Package load is the fleet-scale load harness: it synthesizes a fleet of
// virtual patients from internal/ecgsyn (each with a deterministic
// per-patient seed) and drives their leads as concurrent binary
// application/x-rpbeat-samples streams — plus an optional batch-classify
// mix — against a live rpbeat server, measuring what the paper's serving
// story actually promises: beat latency under fleet load.
//
// Pacing is cadence-faithful: a patient emits chunk k no earlier than
// k*chunk/(Fs*Speedup) after its stream start, so Speedup=1 replays at the
// 360 Hz wearable rate and Speedup=32 compresses an hour of fleet traffic
// into under two minutes without changing the arrival pattern. Beat latency
// is measured end to end — from the wall-clock instant the chunk containing
// the beat's DetectedAt sample was written to the socket until the beat's
// NDJSON line is read back — so it includes server queueing, worker
// scheduling and the transport, exactly what a monitoring client sees.
//
// Every refusal the server issues (server_overloaded, rate_limited,
// stream_overloaded, ...) is tallied by typed code, never treated as a
// transport failure: the overload-control contract is that shed clients see
// contract errors, and this package is how that contract is exercised at
// fleet scale (cmd/rpload and the soak tests both drive it).
package load

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rpbeat/internal/apierr"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/faultinject"
	"rpbeat/internal/peak"
	"rpbeat/internal/sigdsp"
	"rpbeat/internal/wire"
)

// DefaultChunk is the per-frame sample count when Config.Chunk is zero:
// half a second at the 360 Hz ADC rate, the cadence a wearable uplink
// would batch at.
const DefaultChunk = 180

// Config describes one fleet run.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// BaseURLs drives a multi-target topology instead: patient i sends to
	// BaseURLs[i % len(BaseURLs)]. One entry pointing at an rpgate gateway
	// and N entries pointing at rpserve backends directly are both valid
	// fleets — the synthesized per-patient traffic is identical either way
	// (the per-patient seed and X-Stream-Id depend only on Seed and i).
	// When non-empty, BaseURL is ignored.
	BaseURLs []string
	// Streams is the fleet size: concurrent patient streams.
	Streams int
	// Seconds is each patient's record length (default 30).
	Seconds float64
	// Speedup multiplies the real-time 360 Hz cadence; <= 0 disables
	// pacing entirely (firehose — useful for throughput ceilings, useless
	// for latency).
	Speedup float64
	// Chunk is the samples per binary frame (default DefaultChunk).
	Chunk int
	// Model is the ?model= reference ("" = server default).
	Model string
	// Tenant is sent as X-Tenant on every request ("" = none, the server
	// falls back to client IP).
	Tenant string
	// BatchWorkers adds a batch-classify mix: that many loops POSTing
	// whole records to /v1/classify while the streams run.
	BatchWorkers int
	// BatchInterval paces each batch worker (default 500ms between
	// requests).
	BatchInterval time.Duration
	// Seed is the fleet seed; patient i synthesizes from
	// PatientSeed(Seed, i).
	Seed uint64
	// UniqueRecords caps how many distinct records are synthesized;
	// patients share them round-robin so a 1000-stream fleet does not pay
	// for 1000 syntheses (default min(Streams, 16), which still gives
	// distinct per-patient phase in aggregate).
	UniqueRecords int
	// PVCRate is the premature-beat fraction per record (default 0.1).
	PVCRate float64
	// Client overrides the HTTP client (default: one with an unbounded
	// connection pool sized for the fleet).
	Client *http.Client
	// Chaos, when non-zero, seeds deterministic client-side fault
	// self-injection: each patient's uplink is wrapped with the absorbable
	// faultinject kinds (latency spikes, slow-loris pacing), derived from
	// (Chaos, StreamID). Absorbable faults degrade only timing, never
	// integrity, so a correct serving tier still completes every stream —
	// streams_failed stays 0 — while the jitter staggers the fleet so an
	// externally injected backend kill lands at varied stream positions.
	// The beat-continuity ledger (BeatsLost/BeatsDuplicated) is what turns
	// that into a verdict.
	Chaos uint64
}

// Report is the fleet run's outcome, shaped for JSON (rpload -json prints
// it verbatim).
type Report struct {
	Streams int `json:"streams"`
	// Targets is how many distinct base URLs the fleet was spread over
	// (1 for a single server or a gateway).
	Targets       int     `json:"targets,omitempty"`
	RecordSeconds float64 `json:"record_seconds"`
	Speedup       float64 `json:"speedup"`
	Chunk         int     `json:"chunk"`
	WallSeconds   float64 `json:"wall_seconds"`

	// StreamsOK finished with the server's done line; StreamsShed were
	// refused admission with a typed retryable error; StreamsFailed hit
	// anything else (transport errors, non-retryable refusals).
	StreamsOK     int64 `json:"streams_ok"`
	StreamsShed   int64 `json:"streams_shed"`
	StreamsFailed int64 `json:"streams_failed"`

	Beats   int64 `json:"beats"`
	Samples int64 `json:"samples"`
	// The beat-continuity ledger: every completed stream's beat samples are
	// compared against a local model-independent detection oracle
	// (ExpectedBeats) over the same record. BeatsLost counts expected beats
	// that never arrived; BeatsDuplicated counts beat samples delivered
	// more than once. Both must be 0 for a lossless serving tier — the
	// invariant transparent mid-stream failover is held to under chaos.
	BeatsLost       int64 `json:"beats_lost"`
	BeatsDuplicated int64 `json:"beats_duplicated"`
	// ChaosSeed echoes Config.Chaos so a failing chaos run is replayable.
	ChaosSeed uint64 `json:"chaos_seed,omitempty"`
	// GoodputSamplesPerSec counts only samples the server acknowledged in
	// done lines — shed and failed streams contribute nothing.
	GoodputSamplesPerSec float64 `json:"goodput_samples_per_sec"`

	// Beat latency percentiles, milliseconds, over every beat line from
	// every admitted stream.
	BeatLatencyMsP50  float64 `json:"beat_latency_ms_p50"`
	BeatLatencyMsP99  float64 `json:"beat_latency_ms_p99"`
	BeatLatencyMsP999 float64 `json:"beat_latency_ms_p999"`
	BeatLatencyMsMax  float64 `json:"beat_latency_ms_max"`

	BatchRequests int64 `json:"batch_requests,omitempty"`
	BatchOK       int64 `json:"batch_ok,omitempty"`

	// ErrorCounts tallies every typed error code the server returned,
	// plus "transport" for failures below the HTTP contract.
	ErrorCounts map[string]int64 `json:"error_counts,omitempty"`

	// ShedByInstance attributes shed streams to the backend that refused
	// them, keyed by the refusal's X-Rpbeat-Instance response header (set
	// with rpserve -instance; relayed verbatim through rpgate). Refusals
	// without the header are not counted here — only in StreamsShed.
	ShedByInstance map[string]int64 `json:"shed_by_instance,omitempty"`
}

// PatientSeed derives patient i's record seed from the fleet seed: a
// splitmix64 finalizer over a golden-ratio stride, so seeds are
// deterministic, well-spread, and distinct per patient.
func PatientSeed(fleetSeed uint64, patient int) uint64 {
	z := fleetSeed + 0x9e3779b97f4a7c15*uint64(patient+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// StreamID is patient i's affinity token, sent as X-Stream-Id on its
// stream. It derives from the same (Seed, i) pair as the patient's record,
// so a fleet run produces identical per-patient streams — same bytes, same
// identity — whatever topology it is pointed at (one server, a backend
// list, or a gateway that hashes this token onto its pool).
func StreamID(fleetSeed uint64, patient int) string {
	return fmt.Sprintf("patient-%016x", PatientSeed(fleetSeed, patient))
}

// fleet is one run's shared state.
type fleet struct {
	cfg     Config
	targets []string // resolved base URLs; worker i uses targets[i%len]
	client  *http.Client

	records []*ecgsyn.Record
	synth   []sync.Once

	expected [][]int // per-slot beat oracle (ExpectedBeats of the lead)
	expOnce  []sync.Once

	mu        sync.Mutex
	latencies []int64 // beat latency, microseconds
	report    Report
}

func (f *fleet) countErr(code string) {
	f.mu.Lock()
	if f.report.ErrorCounts == nil {
		f.report.ErrorCounts = make(map[string]int64)
	}
	f.report.ErrorCounts[code]++
	f.mu.Unlock()
}

// countShed attributes one shed stream to the refusing backend instance.
func (f *fleet) countShed(instance string) {
	f.mu.Lock()
	if f.report.ShedByInstance == nil {
		f.report.ShedByInstance = make(map[string]int64)
	}
	f.report.ShedByInstance[instance]++
	f.mu.Unlock()
}

// target is worker i's base URL.
func (f *fleet) target(i int) string { return f.targets[i%len(f.targets)] }

// record returns (synthesizing on first use) the shared record for patient i.
func (f *fleet) record(i int) *ecgsyn.Record {
	slot := i % len(f.records)
	f.synth[slot].Do(func() {
		f.records[slot] = ecgsyn.Synthesize(ecgsyn.RecordSpec{
			Name:    fmt.Sprintf("fleet-%d", slot),
			Seconds: f.cfg.Seconds,
			Seed:    PatientSeed(f.cfg.Seed, slot),
			PVCRate: f.cfg.PVCRate,
		})
	})
	return f.records[slot]
}

// ExpectedBeats is the beat-continuity oracle: it runs the serving
// pipeline's model-independent front half — millivolt conversion, the
// streaming ECG filter and the peak detector, all at their serving
// defaults — over one lead and returns the beat sample indices a lossless
// stream of that lead must deliver, in order. Classification plays no part
// in which beats exist, so the oracle needs no model and matches whatever
// model the server applies.
func ExpectedBeats(lead []int32) []int {
	filter := sigdsp.NewStreamECGFilter(sigdsp.DefaultBaselineConfig(ecgsyn.Fs))
	det, err := peak.NewStreamDetector(peak.Config{Fs: ecgsyn.Fs, SearchBackOff: true})
	if err != nil {
		panic("load: ExpectedBeats: " + err.Error())
	}
	var out []int
	for _, v := range lead {
		y, ok := filter.Push(float64(v-ecgsyn.Baseline) / ecgsyn.Gain)
		if !ok {
			continue
		}
		out = append(out, det.Push(y)...)
	}
	out = append(out, det.Flush()...)
	return out
}

// expectedBeats returns (computing on first use) the shared oracle for
// patient i's record slot.
func (f *fleet) expectedBeats(i int) []int {
	slot := i % len(f.records)
	f.expOnce[slot].Do(func() {
		f.expected[slot] = ExpectedBeats(f.record(i).Leads[0])
	})
	return f.expected[slot]
}

// beatLedger reconciles one completed stream against its oracle: expected
// beats that never arrived are lost, beat samples that arrived more than
// once are duplicated.
func beatLedger(want, got []int) (lost, dup int64) {
	seen := make(map[int]int, len(got))
	for _, s := range got {
		seen[s]++
	}
	for _, s := range want {
		if seen[s] == 0 {
			lost++
		}
	}
	for _, n := range seen {
		if n > 1 {
			dup += int64(n - 1)
		}
	}
	return lost, dup
}

// streamLine is the union of every NDJSON line /v1/stream emits: beat
// lines, the done summary, and trailing error lines.
type streamLine struct {
	// beat
	Sample     int    `json:"sample"`
	Class      string `json:"class"`
	DetectedAt int    `json:"detectedAt"`
	// done
	Done    bool `json:"done"`
	Beats   int  `json:"beats"`
	Samples int  `json:"samples"`
	// error
	Error *apierr.Error `json:"error"`
}

// Run drives the fleet to completion: every stream plays its record once
// (or until ctx cancels) while the batch mix rides along, then the report
// is assembled. The error return is reserved for configuration problems;
// per-stream failures are data, tallied in the report.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	targets := cfg.BaseURLs
	if len(targets) == 0 {
		if cfg.BaseURL == "" {
			return nil, fmt.Errorf("load: BaseURL (or BaseURLs) required")
		}
		targets = []string{cfg.BaseURL}
	}
	for _, t := range targets {
		if t == "" {
			return nil, fmt.Errorf("load: empty entry in BaseURLs")
		}
	}
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if cfg.Seconds <= 0 {
		cfg.Seconds = 30
	}
	if cfg.Chunk <= 0 {
		cfg.Chunk = DefaultChunk
	}
	if cfg.PVCRate == 0 {
		cfg.PVCRate = 0.1
	}
	if cfg.BatchInterval <= 0 {
		cfg.BatchInterval = 500 * time.Millisecond
	}
	unique := cfg.UniqueRecords
	if unique <= 0 {
		unique = cfg.Streams
		if unique > 16 {
			unique = 16
		}
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.Streams + cfg.BatchWorkers,
			MaxIdleConnsPerHost: cfg.Streams + cfg.BatchWorkers,
		}}
	}

	f := &fleet{
		cfg:      cfg,
		targets:  targets,
		client:   client,
		records:  make([]*ecgsyn.Record, unique),
		synth:    make([]sync.Once, unique),
		expected: make([][]int, unique),
		expOnce:  make([]sync.Once, unique),
	}
	f.report = Report{
		Streams:       cfg.Streams,
		Targets:       len(targets),
		RecordSeconds: cfg.Seconds,
		Speedup:       cfg.Speedup,
		Chunk:         cfg.Chunk,
		ChaosSeed:     cfg.Chaos,
	}

	start := time.Now()
	var wg sync.WaitGroup

	// The batch mix stops when the stream fleet is done.
	batchCtx, stopBatch := context.WithCancel(ctx)
	defer stopBatch()
	for i := 0; i < cfg.BatchWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.runBatch(batchCtx, i)
		}(i)
	}

	var streams sync.WaitGroup
	for i := 0; i < cfg.Streams; i++ {
		streams.Add(1)
		go func(i int) {
			defer streams.Done()
			f.runStream(ctx, i)
		}(i)
	}
	streams.Wait()
	stopBatch()
	wg.Wait()

	f.report.WallSeconds = time.Since(start).Seconds()
	if f.report.WallSeconds > 0 {
		f.report.GoodputSamplesPerSec = float64(f.report.Samples) / f.report.WallSeconds
	}
	sort.Slice(f.latencies, func(a, b int) bool { return f.latencies[a] < f.latencies[b] })
	f.report.BeatLatencyMsP50 = f.percentile(0.50)
	f.report.BeatLatencyMsP99 = f.percentile(0.99)
	f.report.BeatLatencyMsP999 = f.percentile(0.999)
	if n := len(f.latencies); n > 0 {
		f.report.BeatLatencyMsMax = float64(f.latencies[n-1]) / 1e3
	}
	return &f.report, nil
}

// percentile reads the sorted latency slice; q in [0,1].
func (f *fleet) percentile(q float64) float64 {
	n := len(f.latencies)
	if n == 0 {
		return 0
	}
	idx := int(q * float64(n-1))
	return float64(f.latencies[idx]) / 1e3
}

// runStream plays patient i's record as one binary stream.
func (f *fleet) runStream(ctx context.Context, i int) {
	lead := f.record(i).Leads[0]
	chunk := f.cfg.Chunk
	nChunks := (len(lead) + chunk - 1) / chunk
	// sendNanos[k] is the wall clock when chunk k hit the socket, written
	// by the uplink goroutine and read by the response reader. The server
	// round trip orders the accesses in practice, but that edge crosses a
	// socket the race detector cannot see — hence atomics.
	sendNanos := make([]int64, nChunks)

	pr, pw := io.Pipe()
	url := f.target(i) + "/v1/stream"
	if f.cfg.Model != "" {
		url += "?model=" + f.cfg.Model
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, pr)
	if err != nil {
		f.countErr("transport")
		atomic.AddInt64(&f.report.StreamsFailed, 1)
		return
	}
	req.Header.Set("Content-Type", wire.ContentTypeSamples)
	// The affinity token: deterministic per (Seed, i), so a gateway pins
	// this patient to the same backend run after run.
	req.Header.Set("X-Stream-Id", StreamID(f.cfg.Seed, i))
	if f.cfg.Tenant != "" {
		req.Header.Set("X-Tenant", f.cfg.Tenant)
	}

	// Uplink: chunks at the patient's cadence. time.Since/Until on the
	// monotonic clock, one target per chunk so pacing error never
	// accumulates.
	go func() {
		start := time.Now()
		var frame []byte
		var perChunk time.Duration
		if f.cfg.Speedup > 0 {
			perChunk = time.Duration(float64(chunk) / (ecgsyn.Fs * f.cfg.Speedup) * float64(time.Second))
		}
		// Chaos self-injection: absorbable (timing-only) faults on this
		// patient's own uplink, deterministic per (Chaos, StreamID).
		var uplink io.Writer = pw
		if f.cfg.Chaos != 0 {
			plan := faultinject.Plan{Seed: f.cfg.Chaos, MaxByte: int64(2 * len(lead)), MaxDelay: 2 * time.Millisecond}
			uplink = faultinject.NewWriter(pw,
				plan.Pick(StreamID(f.cfg.Seed, i), faultinject.LatencySpike, faultinject.SlowLoris))
		}
		for k := 0; k < nChunks; k++ {
			if perChunk > 0 {
				target := start.Add(time.Duration(k) * perChunk)
				if d := time.Until(target); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						pw.CloseWithError(ctx.Err())
						return
					}
				}
			}
			lo, hi := k*chunk, (k+1)*chunk
			if hi > len(lead) {
				hi = len(lead)
			}
			var ferr error
			frame, ferr = wire.AppendFrame(frame[:0], lead[lo:hi])
			if ferr != nil {
				pw.CloseWithError(ferr)
				return
			}
			atomic.StoreInt64(&sendNanos[k], time.Now().UnixNano())
			if _, err := uplink.Write(frame); err != nil {
				// Server hung up mid-stream; the reader side classifies it.
				return
			}
		}
		pw.Close()
	}()

	resp, err := f.client.Do(req)
	if err != nil {
		pr.CloseWithError(err) // release the uplink goroutine
		f.countErr("transport")
		atomic.AddInt64(&f.report.StreamsFailed, 1)
		return
	}
	defer func() {
		pr.CloseWithError(io.ErrClosedPipe)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	if resp.StatusCode != http.StatusOK {
		// A typed refusal before the first byte of body was read: the
		// overload-control contract at work.
		var body struct {
			Error apierr.Error `json:"error"`
		}
		code := "transport"
		if json.NewDecoder(resp.Body).Decode(&body) == nil && body.Error.Code != "" {
			code = string(body.Error.Code)
		}
		f.countErr(code)
		if body.Error.Retryable() {
			atomic.AddInt64(&f.report.StreamsShed, 1)
			if inst := resp.Header.Get("X-Rpbeat-Instance"); inst != "" {
				f.countShed(inst)
			}
		} else {
			atomic.AddInt64(&f.report.StreamsFailed, 1)
		}
		return
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var (
		local    []int64
		got      []int // beat samples received, for the continuity ledger
		done     bool
		sawError bool
	)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var l streamLine
		if err := json.Unmarshal(line, &l); err != nil {
			f.countErr("transport")
			continue
		}
		switch {
		case l.Error != nil:
			f.countErr(string(l.Error.Code))
			sawError = true
		case l.Done:
			atomic.AddInt64(&f.report.Beats, int64(l.Beats))
			atomic.AddInt64(&f.report.Samples, int64(l.Samples))
			done = true
		case l.Class != "":
			got = append(got, l.Sample)
			k := l.DetectedAt / chunk
			if k >= 0 && k < nChunks {
				if sent := atomic.LoadInt64(&sendNanos[k]); sent != 0 {
					local = append(local, (time.Now().UnixNano()-sent)/1e3)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		f.countErr("transport")
		sawError = true
	}

	f.mu.Lock()
	f.latencies = append(f.latencies, local...)
	f.mu.Unlock()
	switch {
	case done:
		atomic.AddInt64(&f.report.StreamsOK, 1)
		// Reconcile the completed stream against the beat oracle. Shed and
		// failed streams are excluded: their loss is already attributed by
		// the stream counters, not the continuity ledger.
		lost, dup := beatLedger(f.expectedBeats(i), got)
		atomic.AddInt64(&f.report.BeatsLost, lost)
		atomic.AddInt64(&f.report.BeatsDuplicated, dup)
	case sawError:
		atomic.AddInt64(&f.report.StreamsFailed, 1)
	default:
		f.countErr("transport") // stream ended with neither done nor error
		atomic.AddInt64(&f.report.StreamsFailed, 1)
	}
}

// runBatch is one worker of the batch-classify mix: whole records POSTed at
// a fixed interval while the stream fleet runs.
func (f *fleet) runBatch(ctx context.Context, i int) {
	frame, err := wire.AppendFrame(nil, f.record(i).Leads[0])
	if err != nil {
		f.countErr("transport")
		return
	}
	url := f.target(i) + "/v1/classify"
	if f.cfg.Model != "" {
		url += "?model=" + f.cfg.Model
	}
	tick := time.NewTicker(f.cfg.BatchInterval)
	defer tick.Stop()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(frame))
		if err != nil {
			f.countErr("transport")
			return
		}
		req.Header.Set("Content-Type", wire.ContentTypeSamples)
		if f.cfg.Tenant != "" {
			req.Header.Set("X-Tenant", f.cfg.Tenant)
		}
		atomic.AddInt64(&f.report.BatchRequests, 1)
		resp, err := f.client.Do(req)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				atomic.AddInt64(&f.report.BatchRequests, -1) // canceled, not attempted
				return
			}
			f.countErr("transport")
		case resp.StatusCode == http.StatusOK:
			atomic.AddInt64(&f.report.BatchOK, 1)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		default:
			var body struct {
				Error apierr.Error `json:"error"`
			}
			code := "transport"
			if json.NewDecoder(resp.Body).Decode(&body) == nil && body.Error.Code != "" {
				code = string(body.Error.Code)
			}
			f.countErr(code)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}
