// Package gate is the gateway tier: it routes any number of client
// connections onto a pool of rpserve backends, keeping per-stream pipeline
// state correct by stream affinity. The pool is fixed per process. Stream
// IDs route by rendezvous hashing (Thaler & Ravishankar, 1998): a stream
// goes to the routable backend with the largest hash weight for its ID.
// When the gateway restarts with a changed -backend list, only the minimal
// slice of the key space moves (the removed backend's keys, or the share a
// new backend takes over), so a fleet-wide reshuffle never happens. The
// relay path copies bytes verbatim in both directions — binary
// application/x-rpbeat-samples uplink, NDJSON downlink — through pooled
// buffers, so a relayed response is byte-identical to the backend's and the
// steady-state per-chunk cost is allocation-free.
//
// The gateway also owns fleet-wide model consistency: POST /v1/models fans
// out to every backend with catalog.Manifest digest verification, and the
// health loop cross-checks each backend's catalog digests against the
// gateway's authoritative view — a backend serving a divergent name@vN is
// refused routing until it converges.
package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpbeat/internal/apierr"
	"rpbeat/internal/catalog"
	"rpbeat/internal/core"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/serve"
)

// Config describes a gateway over a pool of rpserve backends.
type Config struct {
	// Backends are the pool's base URLs, e.g. "http://10.0.0.1:8080".
	// Required (at least one); trailing slashes are trimmed, duplicates
	// rejected.
	Backends []string
	// HealthInterval paces the background health/catalog probe loop.
	// 0 means DefaultHealthInterval; negative disables the loop entirely
	// (probes then run only through CheckNow — how tests drive the gateway
	// deterministically).
	HealthInterval time.Duration
	// HealthTimeout bounds one backend probe (default 2s).
	HealthTimeout time.Duration
	// FailAfter is how many consecutive probe/relay transport failures mark
	// a backend down (default 2; a single lost packet should not rehash the
	// fleet).
	FailAfter int
	// Client overrides the backend-side HTTP client (default: a dedicated
	// one with an unbounded per-host connection pool).
	Client *http.Client
}

// DefaultHealthInterval is the probe cadence when Config leaves it zero.
const DefaultHealthInterval = time.Second

// backend is the gateway's view of one pool member. url and hash are fixed
// in newBackend and every other field is an atomic: the relay path reads
// them lock-free.
type backend struct {
	url  string
	hash uint64 // hashKey(url), the backend's side of every routing weight

	// healthy: the backend answers probes (optimistically true at birth).
	// draining: alive but refusing with a typed retryable code (its own
	// graceful shutdown) — out of rotation without counting as down.
	// divergent: its catalog digest for some ref contradicts the fleet's
	// authoritative view; routing there would classify against different
	// model bytes under the same name@vN.
	healthy   atomic.Bool
	draining  atomic.Bool
	divergent atomic.Bool

	fails     atomic.Int32 // consecutive transport failures
	nextCheck atomic.Int64 // unix nanos of the next due probe (backoff)

	inflight atomic.Int64
	relayed  atomic.Int64 // responses relayed to completion
	refused  atomic.Int64 // 429/503 responses relayed from this backend
	lost     atomic.Int64 // transport failures talking to this backend
	lastErr  atomic.Value // string
}

func newBackend(url string) *backend {
	b := &backend{url: url, hash: hashKey(url)}
	b.healthy.Store(true)
	b.lastErr.Store("")
	return b
}

// routable is the relay path's admission check for one backend.
func (b *backend) routable() bool {
	return b.healthy.Load() && !b.draining.Load() && !b.divergent.Load()
}

// noteStatus counts a relayed 503 or 429 as a refusal by b.
func (b *backend) noteStatus(status int) {
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		b.refused.Add(1)
	}
}

// Gateway routes client requests onto the backend pool. See the package
// comment for the invariants it keeps.
type Gateway struct {
	interval   time.Duration // always positive (backoff math); loop gated by runLoop
	runLoop    bool
	timeout    time.Duration
	failAfter  int
	client     *http.Client
	ownsClient bool
	// window is how many trailing uplink samples each stream's replay
	// journal retains for transparent mid-stream failover (failover.go):
	// pipeline.ResyncWarmup of the default pipeline, the replay depth that
	// makes post-failover beats bit-identical to an uninterrupted run. A
	// smaller window breaks that, a larger one only costs memory.
	window int

	// The pool is fixed in New, in Config.Backends order (fan-out and
	// probe order). Nothing writes it after New, so the relay path reads it
	// without a lock.
	members []*backend

	// catMu guards the authoritative ref -> digest view. First sighting of
	// a ref (an upload fan-out, or the first probe that reports it) becomes
	// authoritative; probes apply in member order, so arbitration is
	// deterministic.
	catMu   sync.Mutex
	digests map[string]string

	rr            atomic.Uint64 // round-robin cursor for keyless requests
	shedNoBackend atomic.Int64  // requests refused because no backend was routable
	failovers     atomic.Int64  // mid-stream failover hops performed

	checkMu  sync.Mutex // one probe round at a time, so one probe per backend
	inflight sync.WaitGroup
	loopWG   sync.WaitGroup
	closed   chan struct{}
	closeOne sync.Once

	// bufs pools the relay copy buffers; lineBufs (package-level) the typed
	// error lines. Steady-state relaying allocates in neither direction.
	bufs sync.Pool
}

// lineBufs pools the small buffers behind the gateway's trailing NDJSON
// error lines and rewritten done lines (the shapes internal/serve writes).
var lineBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// relayBufBytes is the relay copy-buffer size: large enough that a typical
// NDJSON beat burst or binary frame relays in one read+write+flush.
const relayBufBytes = 32 << 10

// New builds a Gateway over cfg.Backends and starts its health loop (unless
// HealthInterval < 0). Backends start optimistically routable; the first
// probe round corrects that picture.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gate: at least one backend required")
	}
	g := &Gateway{
		interval:  cfg.HealthInterval,
		runLoop:   cfg.HealthInterval >= 0,
		timeout:   cfg.HealthTimeout,
		failAfter: cfg.FailAfter,
		client:    cfg.Client,
		window:    pipeline.ResyncWarmup(pipeline.Config{}),
		digests:   make(map[string]string),
		closed:    make(chan struct{}),
	}
	if g.interval <= 0 {
		g.interval = DefaultHealthInterval
	}
	if g.timeout <= 0 {
		g.timeout = 2 * time.Second
	}
	if g.failAfter <= 0 {
		g.failAfter = 2
	}
	if g.client == nil {
		g.ownsClient = true
		g.client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 1024,
		}}
	}
	for _, raw := range cfg.Backends {
		u, err := normalizeBackend(raw)
		if err != nil {
			return nil, err
		}
		for _, b := range g.members {
			if b.url == u {
				return nil, fmt.Errorf("gate: duplicate backend %s", u)
			}
		}
		g.members = append(g.members, newBackend(u))
	}
	g.bufs.New = func() any { b := make([]byte, relayBufBytes); return &b }
	if g.runLoop {
		g.loopWG.Add(1)
		go g.healthLoop()
	}
	return g, nil
}

// normalizeBackend canonicalizes one backend base URL.
func normalizeBackend(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return "", fmt.Errorf("gate: backend %q is not an absolute URL", raw)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("gate: backend %q: unsupported scheme %q", raw, u.Scheme)
	}
	return raw, nil
}

// Close drains the gateway: new relays are refused with the typed
// shutting_down error, in-flight relays finish, the health loop stops.
// Idempotent.
func (g *Gateway) Close() {
	g.closeOne.Do(func() { close(g.closed) })
	g.loopWG.Wait()
	g.inflight.Wait()
	if g.ownsClient {
		g.client.CloseIdleConnections()
	}
}

// BackendFor returns the backend URL a stream key routes to right now
// (health and divergence included), or ok=false when nothing is routable.
// This is the routing decision the relay path makes, exposed for
// conformance tests and operators.
//
//rpvet:allow deadcode -- conformance probe: TestGatewayAffinityStable and the chaos tests check the relay against it
func (g *Gateway) BackendFor(key string) (string, bool) {
	b := g.pick(key, nil)
	if b == nil {
		return "", false
	}
	return b.url, true
}

// pick resolves a stream key to a routable backend other than skip, nil
// when there is none. skip is nil when a request is first routed, and the
// backend just lost when a stream fails over. Keyless requests go
// round-robin over the routable members. A keyed one goes by rendezvous
// hashing to the routable member with the largest weight
// mix64(hashKey(key) ^ b.hash), a tie to the smaller URL, so the choice
// depends only on the key and the routable URLs, never on -backend order.
// A backend that leaves loses exactly its own keys, each to that key's
// next-heaviest member, so they spread over every survivor; one that joins
// takes only the keys it weighs heaviest for. Allocation-free.
func (g *Gateway) pick(key string, skip *backend) *backend {
	if key == "" {
		n := len(g.members)
		start := int(g.rr.Add(1)-1) % n
		for i := 0; i < n; i++ {
			if b := g.members[(start+i)%n]; b != skip && b.routable() {
				return b
			}
		}
		return nil
	}
	h := hashKey(key)
	var best *backend
	var bestW uint64
	for _, b := range g.members {
		if b == skip || !b.routable() {
			continue
		}
		w := mix64(h ^ b.hash)
		if best == nil || w > bestW || (w == bestW && b.url < best.url) {
			best, bestW = b, w
		}
	}
	return best
}

// goldenGamma is the golden-ratio increment (the splitmix64 stream
// constant), reused from load.PatientSeed's derivation for the same reason:
// consecutive strides land maximally spread.
const goldenGamma = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer: a cheap full-avalanche mix.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv1a is the 64-bit FNV-1a hash of s, unmixed.
func fnv1a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}

// hashKey hashes a stream key or backend URL for routing: FNV-1a folds the
// bytes, and mix64 finalizes them because FNV alone avalanches poorly.
func hashKey(s string) uint64 { return mix64(fnv1a(s)) }

// affinityKey extracts the stream identity a request routes by: the
// X-Stream-Id header (what internal/load sends), falling back to a
// ?stream= query parameter. Empty means no affinity (round-robin).
func affinityKey(r *http.Request) string {
	if id := r.Header.Get("X-Stream-Id"); id != "" {
		return id
	}
	return r.URL.Query().Get("stream")
}

// Handler builds the gateway's HTTP surface. Catalog mutations fan out to
// every backend; everything else relays to the affine backend verbatim.
// Method-less fallback patterns relay too, so a wrong verb or unknown route
// gets the backend's own typed error body, byte-identical to direct access.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.health)
	mux.HandleFunc("POST /v1/models", g.uploadModel)
	mux.HandleFunc("DELETE /v1/models/{ref}", g.deleteModel)
	mux.HandleFunc("PUT /v1/default", g.setDefault)
	// Everything else — the data paths, admin reads, wrong verbs, unknown
	// routes — relays. (Without these fallbacks the method-qualified
	// patterns above would turn e.g. GET /v1/models into the mux's
	// plain-text 405 instead of the backend's typed body.)
	for _, path := range []string{"/healthz", "/v1/models", "/v1/models/{ref}", "/v1/default"} {
		mux.HandleFunc(path, g.relay)
	}
	mux.HandleFunc("/", g.relay)
	return mux
}

// hopHeaders are the per-connection headers a relay must not forward.
var hopHeaders = []string{
	"Connection", "Proxy-Connection", "Keep-Alive",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// relay forwards one request to its affine backend and streams the
// response back verbatim: POST /v1/stream through relayStream (failover.go),
// everything else through relayTo.
func (g *Gateway) relay(w http.ResponseWriter, r *http.Request) {
	select {
	case <-g.closed:
		serve.WriteErr(w, apierr.New(apierr.CodeShuttingDown, "gateway draining"))
		return
	default:
	}
	b := g.pick(affinityKey(r), nil)
	if b == nil {
		g.shedNoBackend.Add(1)
		serve.WriteErr(w, apierr.New(apierr.CodeServerOverloaded, "gateway: no routable backend for this stream"))
		return
	}
	g.inflight.Add(1)
	defer g.inflight.Done()
	if r.Method == http.MethodPost && r.URL.Path == "/v1/stream" {
		g.relayStream(w, r, b)
		return
	}
	g.relayTo(w, r, b)
}

// relayTo relays a one-shot request: the request body streams through to
// the backend, and the response body streams back through a pooled copy
// buffer with a flush per read. Steady-state cost per relayed chunk: zero
// allocations (RelayCopy).
func (g *Gateway) relayTo(w http.ResponseWriter, r *http.Request, b *backend) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)

	out, err := backendRequest(r, b, r.Body)
	if err != nil {
		serve.WriteErr(w, apierr.New(apierr.CodeInternal, "gateway: building backend request: %v", err))
		return
	}
	out.ContentLength = r.ContentLength

	resp, err := g.client.Do(out)
	if err != nil {
		if r.Context().Err() != nil {
			serve.WriteErr(w, r.Context().Err()) // the client gave up, not the backend
			return
		}
		g.noteBackendError(b, err)
		serve.WriteErr(w, apierr.New(apierr.CodeServerOverloaded,
			"gateway: backend %s unreachable: %v", b.url, err))
		return
	}
	defer resp.Body.Close()
	b.noteStatus(resp.StatusCode)
	relayHeader(w, resp, b)

	bp := g.bufs.Get().(*[]byte)
	_, cerr := RelayCopy(w, http.NewResponseController(w).Flush, resp.Body, *bp)
	g.bufs.Put(bp)
	switch {
	case cerr == nil:
		b.relayed.Add(1)
	case isRelayWriteError(cerr) || r.Context().Err() != nil:
		// The client side failed; the backend did nothing wrong.
	default:
		// The backend died mid-response. The truncated body is the client's
		// (transport) signal.
		g.noteBackendError(b, cerr)
	}
}

// backendRequest builds the request that relays r to b: r's method, URI and
// end-to-end headers, carrying body.
func backendRequest(r *http.Request, b *backend, body io.Reader) (*http.Request, error) {
	out, err := http.NewRequestWithContext(r.Context(), r.Method, b.url+r.URL.RequestURI(), body)
	if err != nil {
		return nil, err
	}
	out.Header = r.Header.Clone()
	for _, h := range hopHeaders {
		out.Header.Del(h)
	}
	return out, nil
}

// relayHeader forwards a backend response's status and end-to-end headers to
// the client, stamped with the backend that answered.
func relayHeader(w http.ResponseWriter, resp *http.Response, b *backend) {
	hdr := w.Header()
	for k, vv := range resp.Header {
		hdr[k] = vv
	}
	for _, h := range hopHeaders {
		hdr.Del(h)
	}
	hdr.Set("X-Rpgate-Backend", b.url)
	w.WriteHeader(resp.StatusCode)
}

// noteBackendError records a transport-level failure against a backend; at
// FailAfter consecutive failures the backend leaves rotation until a probe
// succeeds again.
func (g *Gateway) noteBackendError(b *backend, err error) {
	b.lost.Add(1)
	b.lastErr.Store(err.Error())
	if int(b.fails.Add(1)) >= g.failAfter {
		b.healthy.Store(false)
	}
	b.nextCheck.Store(0) // probe it promptly
}

// RelayCopy is the gateway's relay loop: read from src, write to dst, flush
// after every read so streamed lines reach the client at backend cadence.
// buf is the caller's (pooled) copy buffer; the loop itself is
// allocation-free. Errors from the dst side are distinguishable (they mean
// the client hung up, not the backend) via an errors.As-able wrapper.
//
//rpbeat:allocfree
func RelayCopy(dst io.Writer, flush func() error, src io.Reader, buf []byte) (int64, error) {
	var n int64
	for {
		m, err := src.Read(buf)
		if m > 0 {
			if _, werr := dst.Write(buf[:m]); werr != nil {
				//rpvet:allow allocfree -- error path: the stream is already torn down, one wrapper allocation ends it
				return n, &relayWriteError{werr}
			}
			n += int64(m)
			if flush != nil {
				if ferr := flush(); ferr != nil {
					//rpvet:allow allocfree -- error path: the stream is already torn down, one wrapper allocation ends it
					return n, &relayWriteError{ferr}
				}
			}
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// relayWriteError marks a RelayCopy failure as client-side (dst or flush).
type relayWriteError struct{ err error }

func (e *relayWriteError) Error() string { return "relay write: " + e.err.Error() }
func (e *relayWriteError) Unwrap() error { return e.err }

func isRelayWriteError(err error) bool {
	var we *relayWriteError
	return errors.As(err, &we)
}

// --- health / catalog probing ---

func (g *Gateway) healthLoop() {
	defer g.loopWG.Done()
	// The timer is re-armed only after a round completes: a round slowed by
	// a hung /healthz (each probe bounded by HealthTimeout) pushes the next
	// round back instead of queueing behind it, so probe rounds never stack
	// however slow the fleet gets.
	t := time.NewTimer(g.interval)
	defer t.Stop()
	for {
		select {
		case <-g.closed:
			return
		case <-t.C:
			g.checkRound(context.Background(), false)
			t.Reset(g.interval)
		}
	}
}

// CheckNow runs one full probe round synchronously (every backend,
// backoff ignored). Tests and operators use it; the background loop runs
// the same round on its ticker.
func (g *Gateway) CheckNow(ctx context.Context) { g.checkRound(ctx, true) }

// checkResult is one backend's probe outcome.
type checkResult struct {
	b         *backend
	transport error       // probe never got an HTTP answer
	status    int         // healthz status when it did
	code      apierr.Code // typed code of a non-200 healthz
	refs      map[string]string
}

func (g *Gateway) checkRound(ctx context.Context, force bool) {
	g.checkMu.Lock()
	defer g.checkMu.Unlock()
	now := time.Now().UnixNano()
	results := make([]*checkResult, len(g.members))
	var wg sync.WaitGroup
	for i, b := range g.members {
		if !force && now < b.nextCheck.Load() {
			continue // still backing off
		}
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			results[i] = g.probe(ctx, b)
		}(i, b)
	}
	wg.Wait()
	// Apply sequentially in member order: first-seen digest adoption is
	// then deterministic however the concurrent probes interleaved.
	for _, res := range results {
		if res != nil {
			g.applyProbe(res)
		}
	}
}

// probe asks one backend for /healthz and (when healthy) its catalog
// digests.
func (g *Gateway) probe(ctx context.Context, b *backend) *checkResult {
	res := &checkResult{b: b}
	ctx, cancel := context.WithTimeout(ctx, g.timeout)
	defer cancel()

	resp, err := g.get(ctx, b.url+"/healthz")
	if err != nil {
		res.transport = err
		return res
	}
	res.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		if ae := decodeTypedError(resp.Body); ae != nil {
			res.code = ae.Code
		}
		drainClose(resp.Body)
		return res
	}
	drainClose(resp.Body)

	mresp, err := g.get(ctx, b.url+"/v1/models")
	if err != nil {
		// Healthz answered, so the backend is up; treat a failed catalog
		// read as "no catalog news this round" rather than a death.
		return res
	}
	defer drainClose(mresp.Body)
	if mresp.StatusCode != http.StatusOK {
		return res
	}
	var inv struct {
		Models []struct {
			Name    string `json:"name"`
			Version int    `json:"version"`
			Digest  string `json:"digest"`
		} `json:"models"`
	}
	if err := json.NewDecoder(io.LimitReader(mresp.Body, 4<<20)).Decode(&inv); err != nil {
		return res
	}
	res.refs = make(map[string]string, len(inv.Models))
	for _, m := range inv.Models {
		res.refs[fmt.Sprintf("%s@v%d", m.Name, m.Version)] = m.Digest
	}
	return res
}

func (g *Gateway) get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return g.client.Do(req)
}

// probeJitter spreads a backoff delay deterministically across ±25% of
// base, keyed by backend URL and failure count: the same gateway re-probes
// the same dead backend on the same schedule run after run (reproducible
// tests), while distinct gateways — or successive failures — land at
// different offsets instead of hammering in lockstep. FNV-1a folds the key,
// splitmix64 whitens it, mirroring faultinject's Plan derivation.
func probeJitter(url string, fails int64, base time.Duration) time.Duration {
	h := mix64((fnv1a(url) ^ uint64(fails)) + goldenGamma)
	// h%2048 maps to [-25%, +25%) of base in 1/4096 steps.
	off := (int64(h%2048) - 1024) * int64(base) / 4096
	return base + time.Duration(off)
}

// applyProbe folds one probe outcome into the backend's routing state.
func (g *Gateway) applyProbe(res *checkResult) {
	b := res.b
	now := time.Now()
	switch {
	case res.transport != nil:
		fails := b.fails.Add(1)
		b.lastErr.Store(res.transport.Error())
		if int(fails) >= g.failAfter {
			b.healthy.Store(false)
		}
		// Jittered exponential backoff on the probe cadence, capped at 8x:
		// a dead backend is not hammered, a flapping one recovers within
		// seconds, and gateways that noticed the same death at the same
		// moment de-synchronize instead of re-probing in lockstep.
		shift := min(int(fails), 3)
		b.nextCheck.Store(now.Add(probeJitter(b.url, int64(fails), g.interval<<shift)).UnixNano())
	case res.status != http.StatusOK:
		// The backend answered, so it is not dead — it is refusing. A typed
		// retryable refusal (shutting_down mid-drain, server_overloaded) is
		// the backend asking out of rotation; honor it without burning the
		// failure budget. A non-retryable non-200 healthz is a broken
		// backend: out of rotation the hard way.
		b.fails.Store(0)
		refusal := apierr.Error{Code: res.code}
		if res.code != "" && refusal.Retryable() {
			b.healthy.Store(true)
			b.draining.Store(true)
			b.lastErr.Store("backend draining: " + string(res.code))
		} else {
			b.healthy.Store(false)
			b.lastErr.Store(fmt.Sprintf("healthz status %d (code %q)", res.status, res.code))
		}
		b.nextCheck.Store(now.Add(g.interval).UnixNano())
	default:
		b.fails.Store(0)
		b.healthy.Store(true)
		b.draining.Store(false)
		b.lastErr.Store("")
		b.nextCheck.Store(now.Add(g.interval).UnixNano())
		if res.refs != nil {
			g.applyCatalog(b, res.refs)
		}
	}
}

// applyCatalog cross-checks one backend's catalog digests against the
// authoritative view, adopting first sightings and flagging divergence.
// A divergent backend re-enters rotation the moment a later probe shows
// its digests matching again (convergence heals, nothing sticks).
func (g *Gateway) applyCatalog(b *backend, refs map[string]string) {
	g.catMu.Lock()
	defer g.catMu.Unlock()
	diverged := ""
	for ref, digest := range refs {
		want, known := g.digests[ref]
		if !known {
			g.digests[ref] = digest
			continue
		}
		if digest != want {
			diverged = fmt.Sprintf("%s: backend digest %.12s… != fleet %.12s…", ref, digest, want)
		}
	}
	b.divergent.Store(diverged != "")
	if diverged != "" {
		b.lastErr.Store("catalog divergence: " + diverged)
	}
}

// decodeTypedError reads a typed {"error":{...}} body, nil when the body is
// not one.
func decodeTypedError(r io.Reader) *apierr.Error {
	var body struct {
		Error apierr.Error `json:"error"`
	}
	if json.NewDecoder(io.LimitReader(r, 64<<10)).Decode(&body) != nil || body.Error.Code == "" {
		return nil
	}
	return &body.Error
}

func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}

// --- gateway health surface ---

// BackendStatus is one backend's row of the gateway's GET /healthz body.
type BackendStatus struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Draining  bool   `json:"draining,omitempty"`
	Divergent bool   `json:"divergent,omitempty"`
	Inflight  int64  `json:"inflight"`
	Relayed   int64  `json:"relayed"`
	Refused   int64  `json:"refused"`
	Lost      int64  `json:"lost"`
	LastErr   string `json:"lastErr,omitempty"`
}

// HealthResponse is the gateway's GET /healthz body: OK while at least one
// backend is routable.
type HealthResponse struct {
	OK            bool            `json:"ok"`
	Backends      []BackendStatus `json:"backends"`
	ShedNoBackend int64           `json:"shedNoBackend,omitempty"`
	// Failovers counts mid-stream failover hops: times a live stream was
	// transparently reopened on a successor backend.
	Failovers int64 `json:"failovers,omitempty"`
}

// Status snapshots the pool (the healthz body, also for tests/operators).
func (g *Gateway) Status() HealthResponse {
	out := HealthResponse{
		ShedNoBackend: g.shedNoBackend.Load(),
		Failovers:     g.failovers.Load(),
	}
	for _, b := range g.members {
		st := BackendStatus{
			URL:       b.url,
			Healthy:   b.healthy.Load(),
			Draining:  b.draining.Load(),
			Divergent: b.divergent.Load(),
			Inflight:  b.inflight.Load(),
			Relayed:   b.relayed.Load(),
			Refused:   b.refused.Load(),
			Lost:      b.lost.Load(),
		}
		if s, _ := b.lastErr.Load().(string); s != "" {
			st.LastErr = s
		}
		if st.Healthy && !st.Draining && !st.Divergent {
			out.OK = true
		}
		out.Backends = append(out.Backends, st)
	}
	return out
}

func (g *Gateway) health(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(g.Status())
}

// --- catalog fan-out ---

// UploadResponse is the gateway's POST /v1/models reply: the canonical
// digest (computed by the gateway itself from the uploaded bytes) and every
// backend's verified outcome.
type UploadResponse struct {
	// Ref is the fleet-wide reference when every backend assigned the same
	// version (the common case: catalogs in lockstep).
	Ref      string          `json:"ref,omitempty"`
	Digest   string          `json:"digest"`
	Backends []BackendUpload `json:"backends"`
}

// BackendUpload is one backend's upload outcome.
type BackendUpload struct {
	URL string `json:"url"`
	// Ref is the name@vN the backend assigned (or already held, when
	// Existing).
	Ref      string `json:"ref,omitempty"`
	Existing bool   `json:"existing,omitempty"`
}

// uploadModel fans a model upload out to every backend, verifying each
// returned manifest digest against the gateway's own computation over the
// uploaded bytes — a backend that reports a different digest for the bytes
// it just accepted is marked divergent on the spot.
func (g *Gateway) uploadModel(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		serve.WriteErr(w, apierr.New(apierr.CodeBadInput, "missing ?name= (the model name to version under)"))
		return
	}
	// core.MaxModelBytes bounds the body, matching the backends.
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, core.MaxModelBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			serve.WriteErr(w, apierr.New(apierr.CodePayloadTooLarge, "model upload exceeds %d bytes", tooBig.Limit))
			return
		}
		serve.WriteErr(w, err)
		return
	}
	m, err := core.Decode(data)
	if err != nil {
		serve.WriteErr(w, apierr.New(apierr.CodeBadInput, "%v", err))
		return
	}
	// The canonical digest: what every backend must report back. (Version 1
	// is a placeholder; the digest covers only the model bytes.)
	man, err := catalog.NewManifest(name, 1, m, nil)
	if err != nil {
		serve.WriteErr(w, err)
		return
	}
	digest := man.Digest

	resp := UploadResponse{Digest: digest}
	var created, existing int
	members, failures := g.fanOut(r.Context(), http.MethodPost, "/v1/models?name="+url.QueryEscape(name), data,
		func(b *backend, res *http.Response) error {
			if res.StatusCode != http.StatusCreated {
				ae := decodeTypedError(res.Body)
				switch {
				case ae == nil:
					err := fmt.Errorf("unexpected status %d from %s", res.StatusCode, b.url)
					g.noteBackendError(b, err)
					return err
				case ae.Code == apierr.CodeModelExists:
					// Already replicated (same digest): idempotent success.
					existing++
					resp.Backends = append(resp.Backends, BackendUpload{URL: b.url, Existing: true})
					return nil
				}
				return ae
			}
			var bman catalog.Manifest
			if err := json.NewDecoder(io.LimitReader(res.Body, 1<<20)).Decode(&bman); err != nil {
				err = fmt.Errorf("decoding manifest from %s: %v", b.url, err)
				g.noteBackendError(b, err)
				return err
			}
			if bman.Digest != digest {
				// The backend accepted the bytes but reports a different
				// digest: it is not serving what was uploaded. Refuse to
				// route there until a probe shows convergence.
				b.divergent.Store(true)
				b.lastErr.Store(fmt.Sprintf("upload digest mismatch on %s: got %.12s…, want %.12s…",
					bman.Ref(), bman.Digest, digest))
				return fmt.Errorf("digest mismatch on %s", bman.Ref())
			}
			created++
			resp.Backends = append(resp.Backends, BackendUpload{URL: b.url, Ref: bman.Ref()})
			g.catMu.Lock()
			g.digests[bman.Ref()] = digest
			g.catMu.Unlock()
			return nil
		})
	switch {
	case len(failures) > 0:
		serve.WriteErr(w, apierr.New(apierr.CodeInternal,
			"gateway: model fan-out incomplete (%d/%d backends): %s; the health loop reconciles divergence",
			created+existing, members, strings.Join(failures, "; ")))
		return
	case created == 0 && existing > 0:
		// Every backend already held these bytes: surface the same typed
		// conflict a single backend would.
		serve.WriteErr(w, apierr.New(apierr.CodeModelExists,
			"model %q with digest %.12s… already replicated on all %d backends", name, digest, members))
		return
	}
	// Fleet-wide ref only when every creating backend agreed on the version.
	ref := ""
	for _, bu := range resp.Backends {
		if bu.Ref == "" {
			continue
		}
		if ref == "" {
			ref = bu.Ref
		} else if ref != bu.Ref {
			ref = ""
			break
		}
	}
	resp.Ref = ref
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(resp)
}

// fanOut sends one admin request to every backend and hands each answer to
// outcome, which reads what it needs of the body and returns why that
// backend failed, nil when it did not; fanOut drains and closes the body.
// Backends go one at a time, in member order: version assignment and
// divergence arbitration stay deterministic. Fan-out is an admin operation;
// latency is not the constraint here, agreement is. A transport error counts
// against the backend. fanOut returns the member count and every failure,
// prefixed with its backend's URL.
func (g *Gateway) fanOut(ctx context.Context, method, path string, body []byte,
	outcome func(b *backend, res *http.Response) error) (members int, failures []string) {
	for _, b := range g.members {
		req, err := http.NewRequestWithContext(ctx, method, b.url+path, bytes.NewReader(body))
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", b.url, err))
			continue
		}
		res, err := g.client.Do(req)
		if err != nil {
			g.noteBackendError(b, err)
			failures = append(failures, fmt.Sprintf("%s: %v", b.url, err))
			continue
		}
		err = outcome(b, res)
		drainClose(res.Body)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", b.url, err))
		}
	}
	return len(g.members), failures
}

// deleteModel fans a version retirement out to every backend. Mixed
// outcomes converge ("already gone" counts as done); any hard failure is
// surfaced typed and the health loop reconciles.
func (g *Gateway) deleteModel(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("ref")
	var deleted, missing int
	var firstTyped *apierr.Error
	members, failures := g.fanOut(r.Context(), http.MethodDelete, "/v1/models/"+url.PathEscape(ref), nil,
		func(b *backend, res *http.Response) error {
			if res.StatusCode == http.StatusOK {
				deleted++
				return nil
			}
			ae := decodeTypedError(res.Body)
			if ae == nil {
				return fmt.Errorf("status %d", res.StatusCode)
			}
			if firstTyped == nil {
				firstTyped = ae
			}
			if ae.Code == apierr.CodeModelNotFound {
				missing++
				return nil
			}
			return ae
		})
	switch {
	case len(failures) > 0:
		serve.WriteErr(w, apierr.New(apierr.CodeInternal,
			"gateway: delete fan-out incomplete (%d/%d backends): %s",
			deleted+missing, members, strings.Join(failures, "; ")))
		return
	case deleted == 0:
		// Nowhere to delete from: relay the backends' own typed answer
		// (model_not_found, or bad_input for a malformed ref).
		if firstTyped != nil {
			serve.WriteErr(w, firstTyped)
		} else {
			serve.WriteErr(w, apierr.New(apierr.CodeModelNotFound, "no model %q on any backend", ref))
		}
		return
	}
	g.catMu.Lock()
	delete(g.digests, ref)
	g.catMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(map[string]string{"deleted": ref})
}

// setDefault fans the default-model pointer out to every backend.
func (g *Gateway) setDefault(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4096))
	if err != nil {
		serve.WriteErr(w, apierr.New(apierr.CodeBadInput, "bad request body: %v", err))
		return
	}
	var okCount int
	var firstTyped *apierr.Error
	members, failures := g.fanOut(r.Context(), http.MethodPut, "/v1/default", body,
		func(b *backend, res *http.Response) error {
			if res.StatusCode == http.StatusOK {
				okCount++
				return nil
			}
			ae := decodeTypedError(res.Body)
			if ae == nil {
				return fmt.Errorf("status %d", res.StatusCode)
			}
			if firstTyped == nil {
				firstTyped = ae
			}
			return nil
		})
	switch {
	case len(failures) > 0:
		serve.WriteErr(w, apierr.New(apierr.CodeInternal,
			"gateway: default fan-out incomplete (%d/%d backends): %s",
			okCount, members, strings.Join(failures, "; ")))
	case okCount == 0 && firstTyped != nil:
		serve.WriteErr(w, firstTyped) // e.g. model_not_found everywhere
	default:
		var req struct {
			Model string `json:"model"`
		}
		json.Unmarshal(body, &req)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		json.NewEncoder(w).Encode(map[string]string{"default": req.Model})
	}
}
