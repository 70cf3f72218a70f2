package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rpbeat/internal/core"
	"rpbeat/internal/faultinject"
	"rpbeat/internal/gate"
	"rpbeat/internal/load"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/serve"
	"rpbeat/internal/wire"
)

// The gateway workload: /v1/stream through one gate.Gateway over three
// backends. nproc clients each run paced patient sessions back to back,
// one connection per session; one session in every gwKillEvery that
// reaches a backend has its backend leg killed mid-downlink. See
// WORKLOADS.md for why.
const (
	gwBackends = 3
	// gwSpeedup paces every session at 120x real time: a 60 s record is a
	// half-second session, a chunk every 4.2 ms.
	gwSpeedup = 120
	// gwKillEvery is K: with nproc=2 connections of half-second sessions,
	// killing every fourth session keeps kills at about one per health
	// interval (1 s), so FailAfter (2) measures failover, not demotion.
	gwKillEvery = 4
	// gwLagShare is the generator-lag p99 limit, as a share of a session's
	// length, above which the run is invalid. The workload's pacing matters
	// per session: it fixes the session rate, and with it the kill rate.
	// Chunk-level lag (host CPU steal stalls the VM for ~10 ms, more than
	// the 4.2 ms chunk period) shows in the beat latencies instead.
	gwLagShare = 0.1
	// gwProbeSessions is how many sessions the traced run sends back to
	// back over one kept-alive connection to count the keep-alive defect.
	gwProbeSessions = 32
)

// sessionClient is one client that opens a fresh connection for every
// session: a clone of http.DefaultTransport with keep-alives off. A stream
// the gateway relays forces a read deadline on its client connection as it
// ends, and that can cancel the next request on the same kept-alive
// connection (it comes back 499 canceled, at random). Timed sessions
// therefore do not share connections, so every op can succeed; the traced
// run counts the defect with keepAliveProbe instead.
func sessionClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.DisableKeepAlives = true
	return &http.Client{Transport: t}
}

// keepAliveProbe sends n unpaced sessions back to back over one keep-alive
// connection to the gateway, with no kill, and counts those that fail: a
// transport error, a non-200 status (the defect's 499 canceled) or a body
// that differs from the direct reference. Each failure is printed. It also
// counts the sessions sent on a reused connection.
func keepAliveProbe(url string, frames [][][]byte, refs [][2][]byte, n int) (failed, reused int) {
	client := keepAliveClient()
	defer client.CloseIdleConnections()
	for i := 0; i < n; i++ {
		rec, head := i%len(frames), i%2
		var body []byte
		for _, f := range frames[rec] {
			body = append(body, f...)
		}
		// The URL is the gateway's own, so building the request cannot fail.
		req, _ := http.NewRequest(http.MethodPost, url+"/v1/stream?model="+heads[head], bytes.NewReader(body))
		req.Header.Set("Content-Type", wire.ContentTypeSamples)
		req.Header.Set("X-Stream-Id", fmt.Sprintf("probe-%d", i))
		var again bool
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { again = info.Reused },
		}))
		status, out, err := do(client, req)
		if again {
			reused++
		}
		var why string
		switch {
		case err != nil:
			why = err.Error()
		case status != http.StatusOK:
			why = fmt.Sprintf("status %d: %s", status, trimLine(out))
		case !bytes.Equal(out, refs[rec][head]):
			why = "body differs from the direct stream"
		default:
			continue
		}
		failed++
		fmt.Fprintf(os.Stderr, "keep-alive probe session %d (reused connection %v): %s\n", i, again, why)
	}
	return failed, reused
}

func serveHandler(eng *pipeline.Engine) http.Handler {
	return serve.NewHandler(eng, serve.HandlerConfig{})
}

// session is one paced patient session; it is also the request body, fed
// by the generator goroutine.
type session struct {
	sid       string // X-Stream-Id, the gateway's affinity key
	rec, head int
	start     time.Time
	frames    chan []byte // buffered to the whole session, so the generator never blocks
	cur       []byte
	read      atomic.Int64 // samples the transport has taken from the body

	mu         sync.Mutex // guards the kill record (written by the backend transport)
	killAt     time.Time
	killByte   int64
	killPos    int64 // uplink samples taken by the kill
	succHdr    time.Time
	resumeFrom int64
}

func (s *session) Read(p []byte) (int, error) {
	for len(s.cur) == 0 {
		f, ok := <-s.frames
		if !ok {
			return 0, io.EOF
		}
		s.cur = f
	}
	n := copy(p, s.cur)
	s.cur = s.cur[n:]
	if len(s.cur) == 0 {
		s.read.Add(chunkSamples) // records are whole chunks long
	}
	return n, nil
}

func (s *session) Close() error { return nil }

// due is when chunk k of the session is due.
func (s *session) due(k int) time.Time {
	return s.start.Add(time.Duration(float64(k) * chunkSamples / (fs * gwSpeedup) * float64(time.Second)))
}

// generator is the workload's one open-loop generator goroutine: it hands
// every session's chunks to its body at their due times.
type generator struct {
	frames [][][]byte // per record, per chunk: one wire frame
	starts chan *session
	lags   samples // ms
	stop   chan struct{}
	done   chan struct{}
}

func (g *generator) run() {
	defer close(g.done)
	type active struct {
		s *session
		k int
	}
	var act []*active
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		next := time.Time{}
		for _, a := range act {
			if d := a.s.due(a.k); next.IsZero() || d.Before(next) {
				next = d
			}
		}
		wait := time.Hour
		if !next.IsZero() {
			wait = time.Until(next)
		}
		if wait > 0 {
			timer.Reset(wait)
			select {
			case s := <-g.starts:
				act = append(act, &active{s: s})
				timer.Stop()
				continue
			case <-g.stop:
				return
			case <-timer.C:
			}
		}
		now := time.Now()
		kept := act[:0]
		for _, a := range act {
			frames := g.frames[a.s.rec]
			for a.k < len(frames) && !a.s.due(a.k).After(now) {
				g.lags.add(float64(now.Sub(a.s.due(a.k))) / 1e6)
				a.s.frames <- frames[a.k]
				a.k++
			}
			if a.k == len(frames) {
				close(a.s.frames)
			} else {
				kept = append(kept, a)
			}
		}
		act = kept
	}
}

// backendTransport is the gateway's backend client: it records a span per
// round trip, kills the first backend leg of every gwKillEvery-th session
// with a faultinject.KillAfterBytes reader at a seeded offset in the
// middle half of the downlink, and timestamps the kill and the successor's
// response headers. Resumed attempts pass through clean.
type backendTransport struct {
	base     *http.Transport
	seed     uint64
	sessions sync.Map // sid -> *session
	refLen   func(s *session) int
	firsts   atomic.Int64
	kills    atomic.Int64
	tr       *tracer
	spans    *atomic.Bool
}

func (t *backendTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var tr *tracer
	if t.spans.Load() {
		tr = t.tr
	}
	sid := req.Header.Get("X-Stream-Id")
	start := tr.now()
	resp, err := t.base.RoundTrip(req)
	hdrAt := time.Now()
	tr.add(0, 0, "gate", "backend_roundtrip", sid, start, tr.now())
	if err != nil || req.URL.Path != "/v1/stream" {
		return resp, err
	}
	v, ok := t.sessions.Load(sid)
	if !ok {
		return resp, nil
	}
	s := v.(*session)
	if h := req.Header.Get(wire.ResumeFromHeader); h != "" {
		from, _ := strconv.ParseInt(h, 10, 64)
		s.mu.Lock()
		if s.succHdr.IsZero() {
			s.succHdr, s.resumeFrom = hdrAt, from
		}
		s.mu.Unlock()
		return resp, nil
	}
	if t.firsts.Add(1)%gwKillEvery != 0 {
		return resp, nil
	}
	n := int64(t.refLen(s))
	plan := faultinject.Plan{Seed: t.seed, MaxByte: n / 2}
	at := n/4 + plan.Pick(sid, faultinject.KillAfterBytes).AtByte
	s.mu.Lock()
	s.killByte = at
	s.mu.Unlock()
	t.kills.Add(1)
	resp.Body = &killBody{ReadCloser: resp.Body, r: faultinject.NewReader(resp.Body, faultinject.Fault{Kind: faultinject.KillAfterBytes, AtByte: at}), s: s}
	return resp, nil
}

// killBody timestamps the injected kill.
type killBody struct {
	io.ReadCloser
	r     *faultinject.Reader
	s     *session
	fired bool
}

func (k *killBody) Read(p []byte) (int, error) {
	n, err := k.r.Read(p)
	if errors.Is(err, faultinject.ErrInjected) && !k.fired {
		k.fired = true
		k.s.mu.Lock()
		k.s.killAt = time.Now()
		k.s.killPos = k.s.read.Load()
		k.s.mu.Unlock()
	}
	return n, err
}

// gwStack is the serving side: three backends, the gateway and its server.
type gwStack struct {
	nodes []*node
	gw    *gate.Gateway
	srv   *server
	tp    *backendTransport
}

func (s *gwStack) close() {
	s.srv.close()
	s.gw.Close()
	for _, n := range s.nodes {
		n.close()
	}
	s.tp.base.CloseIdleConnections()
}

// line is one downlink line as the client received it.
type line struct {
	at   time.Time
	data []byte
}

// sessionResult is one session as the client saw it.
type sessionResult struct {
	s      *session
	status int
	body   []byte
	lines  []line
	err    error
	reused bool // sent on a kept-alive connection
}

// runSession plays one session on one of the client's connections.
func runSession(client *http.Client, url string, s *session, g *generator) sessionResult {
	res := sessionResult{s: s}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/stream?model="+heads[s.head], s)
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", wire.ContentTypeSamples)
	req.Header.Set("X-Stream-Id", s.sid)
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { res.reused = info.Reused },
	}))
	s.start = time.Now()
	g.starts <- s
	resp, err := client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	br := bufio.NewReader(resp.Body)
	for {
		b, err := br.ReadBytes('\n')
		if len(b) > 0 {
			res.lines = append(res.lines, line{at: time.Now(), data: b})
			res.body = append(res.body, b...)
		}
		if err != nil {
			if err != io.EOF {
				res.err = err
			}
			return res
		}
	}
}

// streamLine is one /v1/stream downlink line as a client decodes it.
type streamLine struct {
	Sample     int  `json:"sample"`
	DetectedAt int  `json:"detectedAt"`
	Done       bool `json:"done"`
	Samples    int  `json:"samples"`
}

func runGateway(r *run) (*outcome, error) {
	o := newOutcome()
	nproc := runtime.GOMAXPROCS(0)
	leads := synthRecords(r.seed)
	g := &generator{frames: make([][][]byte, len(leads)), starts: make(chan *session), stop: make(chan struct{}), done: make(chan struct{})}
	var frameBytes, frameCount int
	for i, lead := range leads {
		for off := 0; off < len(lead); off += chunkSamples {
			f, err := wire.AppendFrame(nil, lead[off:min(off+chunkSamples, len(lead))])
			if err != nil {
				return nil, err
			}
			g.frames[i] = append(g.frames[i], f)
			frameBytes += len(f)
			frameCount++
		}
	}
	go g.run()
	defer func() {
		close(g.stop)
		<-g.done
	}()

	tr := newTracer(r.trace)
	serveStats, gateStats := newHTTPStats(), newHTTPStats()
	var spansOn atomic.Bool
	switched := func(layer string, st *httpStats) func(http.Handler) http.Handler {
		return func(h http.Handler) http.Handler {
			if !r.trace {
				return h
			}
			th := traced(layer, tr, st, h)
			return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				if spansOn.Load() {
					th.ServeHTTP(w, req)
				} else {
					h.ServeHTTP(w, req)
				}
			})
		}
	}

	var refs [][2][]byte // direct /v1/stream body per record and head
	refLen := func(s *session) int { return len(refs[s.rec][s.head]) }
	clients := make([]*http.Client, nproc)
	sessionSeq := 0
	newSession := func(rec, head int) *session {
		sessionSeq++
		return &session{sid: fmt.Sprintf("session-%d-%d", r.seed, sessionSeq), rec: rec, head: head,
			frames: make(chan []byte, len(g.frames[rec]))}
	}

	stack, setupS, err := timeSetup(func() (*gwStack, error) {
		st := &gwStack{}
		for i := 0; i < gwBackends; i++ {
			n, err := startNode(switched("serve", serveStats))
			if err != nil {
				return nil, err
			}
			st.nodes = append(st.nodes, n)
		}
		var urls []string
		for _, n := range st.nodes {
			urls = append(urls, n.srv.URL)
		}
		st.tp = &backendTransport{base: &http.Transport{MaxIdleConns: 1024, MaxIdleConnsPerHost: 1024},
			seed: r.seed, refLen: refLen, tr: tr, spans: &spansOn}
		gw, err := gate.New(gate.Config{Backends: urls, Client: &http.Client{Transport: st.tp}})
		if err != nil {
			return nil, err
		}
		st.gw = gw
		gw.CheckNow(context.Background())
		if st.srv, err = listen(switched("gate", gateStats)(gw.Handler())); err != nil {
			return nil, err
		}
		for c := range clients {
			clients[c] = sessionClient()
		}
		// Warm-up: one session per client, unpaced, with no kill.
		var wg sync.WaitGroup
		errs := make(chan error, nproc)
		for c := range clients {
			s := newSession(c%numRecords, c%2)
			s.start = time.Now()
			for _, f := range g.frames[s.rec] {
				s.frames <- f
			}
			close(s.frames)
			wg.Add(1)
			go func(c int, s *session) {
				defer wg.Done()
				req, _ := http.NewRequest(http.MethodPost, st.srv.URL+"/v1/stream?model="+heads[s.head], s)
				req.Header.Set("Content-Type", wire.ContentTypeSamples)
				status, body, err := do(clients[c], req)
				if err != nil || status != http.StatusOK {
					errs <- fmt.Errorf("warm-up session: status %d, %v: %s", status, err, trimLine(body))
				}
			}(c, s)
		}
		wg.Wait()
		close(errs)
		return st, <-errs
	}, func(st *gwStack) {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
		st.close()
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
		stack.close()
	}()
	o.metrics["setup_s"] = setupS

	// References, outside the timed phase: an uninterrupted direct
	// /v1/stream of every record and head against one backend, and the
	// beat-continuity oracle.
	direct := keepAliveClient()
	defer direct.CloseIdleConnections()
	refs = make([][2][]byte, len(leads))
	expected := make([][]int, len(leads))
	for rec := range leads {
		var body []byte
		for _, f := range g.frames[rec] {
			body = append(body, f...)
		}
		for h := range heads {
			req, err := http.NewRequest(http.MethodPost, stack.nodes[0].srv.URL+"/v1/stream?model="+heads[h], bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", wire.ContentTypeSamples)
			status, out, err := do(direct, req)
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("reference stream: status %d, %v: %s", status, err, trimLine(out))
			}
			refs[rec][h] = out
		}
		expected[rec] = load.ExpectedBeats(leads[rec])
	}

	// Demotions: poll the pool and count healthy -> unhealthy transitions.
	var demotions atomic.Int64
	pollStop, pollDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pollDone)
		healthy := map[string]bool{}
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			for _, b := range stack.gw.Status().Backends {
				if was, seen := healthy[b.URL]; seen && was && !b.Healthy {
					demotions.Add(1)
				}
				healthy[b.URL] = b.Healthy
			}
			select {
			case <-pollStop:
				return
			case <-t.C:
			}
		}
	}()

	// phase runs sessions back to back on every connection for d.
	type phaseOut struct {
		results []sessionResult
		wall    float64
		cpu     time.Duration
	}
	var mu sync.Mutex
	next := 0
	phase := func(d time.Duration) phaseOut {
		var out phaseOut
		cpu0 := cpuTime()
		start := time.Now()
		deadline := start.Add(d)
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					mu.Lock()
					n := next
					next++
					s := newSession(n%numRecords, (n/numRecords)%2)
					mu.Unlock()
					stack.tp.sessions.Store(s.sid, s)
					res := runSession(clients[c], stack.srv.URL, s, g)
					mu.Lock()
					out.results = append(out.results, res)
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		out.wall = time.Since(start).Seconds()
		out.cpu = cpuTime() - cpu0
		return out
	}

	T := time.Duration(r.seconds * float64(time.Second))
	var untraced phaseOut
	if r.trace {
		untraced = phase(T / 4)
		spansOn.Store(true)
		T -= T / 4
	}
	failovers0 := stack.gw.Status().Failovers
	kills0 := stack.tp.kills.Load()
	res := phase(T)
	spansOn.Store(false)
	failovers := stack.gw.Status().Failovers - failovers0
	kills := stack.tp.kills.Load() - kills0
	heap := liveHeapMB()
	close(pollStop)
	<-pollDone

	// Correctness gate and the per-session figures.
	var (
		acked                            int64
		blackout, reopen, replay, replMs []float64
		beatLat                          []float64
		transparent                      int
	)
	check := func(results []sessionResult, count bool) int64 {
		var ackedHere int64
		for _, sr := range results {
			s := sr.s
			o.attempted++
			ref := refs[s.rec][s.head]
			switch {
			case sr.err != nil && sr.status == 0:
				o.fail("transport", "session %s: %v", s.sid, sr.err)
				continue
			case sr.status != http.StatusOK:
				code := codeOf(sr.body)
				if code == "" {
					code = fmt.Sprintf("status_%d", sr.status)
				}
				o.fail(code, "session %s: status %d: %s", s.sid, sr.status, trimLine(sr.body))
				continue
			}
			var beats []int
			var done *streamLine
			var errLine []byte
			for _, l := range sr.lines {
				if bytes.HasPrefix(l.data, []byte(`{"error":`)) {
					errLine = l.data
					continue
				}
				var sl streamLine
				if err := json.Unmarshal(l.data, &sl); err != nil {
					continue
				}
				if sl.Done {
					done = &sl
					continue
				}
				beats = append(beats, sl.Sample)
				if count {
					k := sl.DetectedAt / chunkSamples
					beatLat = append(beatLat, float64(l.at.Sub(s.due(k)))/1e6)
				}
			}
			switch {
			case errLine != nil:
				code := codeOf(errLine)
				o.fail(code, "session %s: error line %s", s.sid, trimLine(errLine))
				continue
			case done == nil:
				o.fail("missing_done", "session %s: body ended without a done line (%v)", s.sid, sr.err)
				continue
			case !bytes.Equal(sr.body, ref):
				o.mismatch("session %s (record %d, %s head): body differs from the direct stream (%d vs %d bytes)",
					s.sid, s.rec, heads[s.head], len(sr.body), len(ref))
				continue
			}
			if lost, dup := ledgerBeats(expected[s.rec], beats); lost+dup > 0 {
				o.mismatch("session %s: %d beats lost, %d duplicated against load.ExpectedBeats", s.sid, lost, dup)
				continue
			}
			ackedHere += int64(done.Samples)
			s.mu.Lock()
			killAt, killByte, killPos, succHdr, from := s.killAt, s.killByte, s.killPos, s.succHdr, s.resumeFrom
			s.mu.Unlock()
			if !count || killAt.IsZero() {
				continue
			}
			transparent++
			// The first beat past the delivery watermark: the first beat line
			// of the reference that was not whole within the killed bytes.
			w := 0
			for _, l := range splitLines(ref[:killByte]) {
				if bytes.HasPrefix(l, []byte(`{"sample":`)) {
					w++
				}
			}
			beatIdx := 0
			for _, l := range sr.lines {
				if !bytes.HasPrefix(l.data, []byte(`{"sample":`)) {
					continue
				}
				if beatIdx == w {
					var sl streamLine
					json.Unmarshal(l.data, &sl)
					from := killAt
					if due := s.due(sl.DetectedAt / chunkSamples); due.After(from) {
						from = due
					}
					blackout = append(blackout, float64(l.at.Sub(from))/1e6)
					if !succHdr.IsZero() {
						replMs = append(replMs, float64(l.at.Sub(succHdr))/1e6)
					}
					break
				}
				beatIdx++
			}
			if !succHdr.IsZero() {
				reopen = append(reopen, float64(succHdr.Sub(killAt))/1e6)
				replay = append(replay, float64(killPos-from))
			}
		}
		return ackedHere
	}
	check(untraced.results, false)
	acked = check(res.results, true)

	o.metrics["live_heap_mb"] = heap
	cpuPerSample := float64(res.cpu) / float64(max(1, acked))
	o.metrics["cpu_ns_per_sample"] = cpuPerSample
	o.metrics["goodput_per_s"] = float64(acked) / res.wall
	o.metrics["streams_per_core"] = 1e9 / (cpuPerSample * fs)
	o.metrics["latency_p50_ms"] = quantile(blackout, 0.5)
	o.metrics["ok_frac"] = 1 - float64(o.failed)/float64(max(1, o.attempted))
	reused := 0
	for _, sr := range res.results {
		if sr.reused {
			reused++
		}
	}
	o.notef("gateway: %d sessions (%d on a reused connection) in %.1f s over %d clients, %d kills, %d failovers, %d transparent, %d demotions",
		len(res.results), reused, res.wall, nproc, kills, failovers, transparent, demotions.Load())
	o.notef("blackout_p50_ms %.3f ms over %d killed sessions", quantile(blackout, 0.5), len(blackout))
	o.notef("cpu_ns_per_sample %.1f ns over %d acknowledged samples", cpuPerSample, acked)
	lags := g.lags.take()
	sessionMs := float64(recordSeconds) / gwSpeedup * 1e3
	lagP99 := quantile(lags, 0.99)
	o.notef("generator lag p50 %.3f ms, p99 %.3f ms (session %.0f ms)", quantile(lags, 0.5), lagP99, sessionMs)
	if lagP99 > gwLagShare*sessionMs {
		o.invalid = fmt.Sprintf("generator lag p99 %.2f ms > %.0f%% of the %.0f ms session", lagP99, 100*gwLagShare, sessionMs)
	}
	if len(blackout) < 21 {
		o.notef("warning: %d killed sessions; the median wants at least ten on either side", len(blackout))
	}

	if r.trace {
		var embs [2]*core.Embedded
		for h, name := range heads {
			if embs[h], err = embedded(stack.nodes[0].cat, name); err != nil {
				return nil, err
			}
		}
		var costs []*streamCost
		for _, lead := range leads {
			c, err := replayStream(lead, embs)
			if err != nil {
				return nil, err
			}
			costs = append(costs, c)
		}
		l := sumStream(costs)
		m := o.metrics
		var uplink [][]byte
		var downlink [][]byte
		var beats [][]pipeline.BeatResult
		for rec := range leads {
			var b []byte
			for _, f := range g.frames[rec] {
				b = append(b, f...)
			}
			uplink = append(uplink, b)
			downlink = append(downlink, refs[rec][0], refs[rec][1])
			beats = append(beats, costs[rec].beats[0])
		}
		m["wire.frame_decode_ns_per_sample"] = frameDecodeNs(uplink)
		m["wire.encode_ns_per_beat"] = streamEncodeNs(beats)
		m["wire.uplink_bytes_per_sample"] = float64(frameBytes) / float64(frameCount*chunkSamples)
		m["serve.handler_ms_p50"] = quantile(serveStats.handlerMs.take(), 0.5)
		m["serve.handler_ms_p99"] = quantile(serveStats.handlerMs.take(), 0.99)
		m["serve.body_wait_ms_p50"] = quantile(serveStats.bodyMs.take(), 0.5)
		m["serve.write_ms_p50"] = quantile(serveStats.writeMs.take(), 0.5)
		m["serve.refused"] = float64(serveStats.refusedTotal())
		m["gate.refused"] = float64(gateStats.refusedTotal())
		m["sigdsp.stream_filter_ns_per_sample"] = l.filterNs
		m["sigdsp.stream_dwt_ns_per_sample"] = l.dwtNs
		m["peak.stream_detect_ns_per_sample"] = l.detectSelfNs
		m["peak.beats_per_ksample"] = 1000 * l.beatsPerSample
		m["core.classify_ns_per_beat"] = l.classNs[0]
		m["bitemb.classify_ns_per_beat"] = l.classNs[1]
		p, err := pipeline.New(embs[0], pipeline.Config{})
		if err != nil {
			return nil, err
		}
		m["pipeline.delay_samples"] = float64(p.Delay())
		m["gate.kills"] = float64(kills)
		m["gate.failovers"] = float64(failovers)
		m["gate.transparent_frac"] = float64(transparent) / float64(max(1, kills))
		m["gate.reopen_ms_p50"] = quantile(reopen, 0.5)
		m["gate.replay_samples_p50"] = quantile(replay, 0.5)
		m["gate.replay_ms_p50"] = quantile(replMs, 0.5)
		m["gate.relay_ns_per_kb"] = relayNsPerKB(downlink)
		m["gate.journal_append_ns"] = journalAppendNs(frameBytes / frameCount)
		m["gate.demotions"] = float64(demotions.Load())
		probeFailed, probeReused := keepAliveProbe(stack.srv.URL, g.frames, refs, gwProbeSessions)
		m["gate.keepalive_failed"] = float64(probeFailed)
		o.notef("keep-alive probe: %d of %d sessions back to back on one connection failed (%d sent on a reused connection)",
			probeFailed, gwProbeSessions, probeReused)
		m["load.gen_lag_ms_p50"] = quantile(lags, 0.5)
		m["load.gen_lag_ms_p99"] = lagP99
		m["load.beat_latency_ms_p50.gateway"] = quantile(beatLat, 0.5)
		m["load.beat_latency_ms_p99.gateway"] = quantile(beatLat, 0.99)
		m["load.beat_latency_ms_p999.gateway"] = quantile(beatLat, 0.999)
		m["load.beat_latency_count.gateway"] = float64(len(beatLat))
		untracedAcked := float64(0)
		for _, sr := range untraced.results {
			for i := len(sr.lines) - 1; i >= 0; i-- {
				var sl streamLine
				if json.Unmarshal(sr.lines[i].data, &sl) == nil && sl.Done {
					untracedAcked += float64(sl.Samples)
					break
				}
			}
		}
		untracedCPU := float64(untraced.cpu) / untracedAcked
		m["trace.overhead_frac"] = cpuPerSample/untracedCPU - 1

		// The CPU split, per acknowledged sample: the stage rows times how
		// often each runs (the front-end also re-runs every replayed
		// sample) against the untraced CPU per sample. What they leave is
		// per-chunk HTTP work on three hops that no layer module owns.
		replayShare := sum(replay) / float64(max(1, acked))
		front := l.perSampleNs() * (1 + replayShare)
		wireNs := m["wire.frame_decode_ns_per_sample"] + m["wire.encode_ns_per_beat"]*l.beatsPerSample
		downPerSample := float64(len(downlink[0])+len(downlink[1])) / 2 / float64(len(leads[0]))
		gateNs := m["gate.journal_append_ns"]/chunkSamples + m["gate.relay_ns_per_kb"]*downPerSample/1024
		stages := front + wireNs + gateNs
		m["gate.http_residual_ns_per_sample"] = untracedCPU - stages
		o.notef("CPU per acknowledged sample %.1f ns: front-end %.1f (replay share %.3f) + wire %.1f + gate %.2f = %.1f; HTTP residual %.1f (%.1f%%)",
			untracedCPU, front, replayShare, wireNs, gateNs, stages, untracedCPU-stages, 100*(untracedCPU-stages)/untracedCPU)

		// The ledger, per killed session: blackout = reopen + replay, with
		// the remainder (the wait for the first beat past the watermark
		// once replay has caught up) as the residual.
		bo := quantile(blackout, 0.5)
		parts := m["gate.reopen_ms_p50"] + m["gate.replay_ms_p50"]
		m["ledger.residual_frac"] = (bo - parts) / bo
		if f := m["ledger.residual_frac"]; f >= -ledgerTolerance && f <= ledgerTolerance {
			m["ledger.within_tolerance"] = 1
		}
		o.notef("ledger (blackout p50 %.3f ms per killed session): reopen %.3f + replay %.3f = %.3f; residual %.3f (%.1f%%, tolerance %.0f%%)",
			bo, m["gate.reopen_ms_p50"], m["gate.replay_ms_p50"], parts, bo-parts, 100*m["ledger.residual_frac"], 100*ledgerTolerance)
		o.notef("tracing overhead %.1f%% CPU per sample (traced %.1f vs untraced %.1f ns)", 100*m["trace.overhead_frac"], cpuPerSample, untracedCPU)
		n, dropped, err := tr.write(fmt.Sprintf("%s/trace-gateway.jsonl", r.traceDir))
		if err != nil {
			return nil, err
		}
		o.notef("trace: %d spans written, %d dropped", n, dropped)
	}
	return o, nil
}

// splitLines splits complete lines (each ending in '\n') off b.
func splitLines(b []byte) [][]byte {
	var out [][]byte
	for {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return out
		}
		out = append(out, b[:i+1])
		b = b[i+1:]
	}
}

// ledgerBeats reconciles delivered beat samples with the oracle: expected
// beats missing, and beats delivered more than once.
func ledgerBeats(want, got []int) (lost, dup int) {
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
			dup += n - 1
		}
	}
	return lost, dup
}
