package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rpbeat/internal/apierr"
	"rpbeat/internal/catalog"
	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/nfc"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/rng"
	"rpbeat/internal/rp"
	"rpbeat/internal/serve"
	"rpbeat/internal/testutil"
	"rpbeat/internal/wire"
)

// testModel fabricates a structurally valid model without the GA: beat
// detection is model-independent and classification is deterministic for
// fixed bytes, which is all relay identity tests need.
// A fixed seed makes every backend's copy byte-identical (same digest).
func testModel(seed uint64) *core.Model {
	r := rng.New(seed)
	mf := nfc.NewParams(8)
	for i := range mf.C {
		mf.C[i] = float64(r.Intn(4000) - 2000)
		mf.Sigma[i] = 200 + float64(r.Intn(800))
	}
	return &core.Model{
		K: 8, D: 50, Downsample: 4,
		P:  rp.NewRandom(r, 8, 50),
		MF: mf, AlphaTrain: 0.1, MinARR: 0.97,
	}
}

// modelBytes is the canonical binary codec form of testModel(seed).
func modelBytes(t *testing.T, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := testModel(seed).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testLead synthesizes one deterministic ECG lead.
func testLead(seconds float64, seed uint64) []int32 {
	return ecgsyn.Synthesize(ecgsyn.RecordSpec{
		Name: "gate", Seconds: seconds, Seed: seed, PVCRate: 0.1,
	}).Leads[0]
}

// backendStack is one live rpserve backend for gateway tests.
type backendStack struct {
	instance string
	eng      *pipeline.Engine
	ts       *httptest.Server
	closed   bool
}

func (b *backendStack) Close() {
	if b.closed {
		return
	}
	b.closed = true
	b.ts.Close()
	b.eng.Close()
}

// newBackendStack boots one backend serving testModel(1) as "m" (so every
// backend in a pool holds identical bytes — one fleet digest).
func newBackendStack(t *testing.T, instance string, cfg serve.HandlerConfig) *backendStack {
	t.Helper()
	cat := catalog.New()
	if _, err := cat.Put("m", testModel(1), nil); err != nil {
		t.Fatal(err)
	}
	eng := pipeline.NewEngine(cat, pipeline.EngineConfig{Workers: 2})
	cfg.Instance = instance
	ts := httptest.NewServer(serve.NewHandler(eng, cfg))
	return &backendStack{instance: instance, eng: eng, ts: ts}
}

// gateStack is a full gateway-over-backends fixture. Health probing is
// manual (CheckNow) so tests are deterministic.
type gateStack struct {
	backends []*backendStack
	gw       *Gateway
	ts       *httptest.Server
}

func (s *gateStack) Close() {
	s.ts.Close() // first: waits for in-flight gateway handlers
	s.gw.Close()
	for _, b := range s.backends {
		b.Close()
	}
}

func (s *gateStack) urls() []string {
	out := make([]string, len(s.backends))
	for i, b := range s.backends {
		out[i] = b.ts.URL
	}
	return out
}

func newGateStack(t *testing.T, n int, cfg serve.HandlerConfig, gcfg Config) *gateStack {
	t.Helper()
	s := &gateStack{}
	for i := 0; i < n; i++ {
		s.backends = append(s.backends, newBackendStack(t, fmt.Sprintf("b%d", i+1), cfg))
	}
	gcfg.Backends = s.urls()
	if gcfg.HealthInterval == 0 {
		gcfg.HealthInterval = -1 // manual probing unless a test opts in
	}
	gw, err := New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	s.gw = gw
	s.ts = httptest.NewServer(gw.Handler())
	return s
}

// backendByURL maps a gateway-reported backend URL back to its stack.
func (s *gateStack) backendByURL(t *testing.T, url string) *backendStack {
	t.Helper()
	for _, b := range s.backends {
		if b.ts.URL == url {
			return b
		}
	}
	t.Fatalf("unknown backend URL %s", url)
	return nil
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

// postBody does one request and returns status, body and headers.
func postBody(t *testing.T, client *http.Client, method, url, contentType string, hdr map[string]string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

// wantTyped asserts a typed error body with the given status and code, and
// the Retry-After header exactly when the code is retryable.
func wantTyped(t *testing.T, status int, body []byte, hdr http.Header, wantStatus int, code apierr.Code) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status %d, want %d (body %s)", status, wantStatus, body)
	}
	var er struct {
		Error apierr.Error `json:"error"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("body %q is not a typed error: %v", body, err)
	}
	if er.Error.Code != code {
		t.Fatalf("code %q, want %q (message %q)", er.Error.Code, code, er.Error.Message)
	}
	if wantRA := er.Error.Retryable(); (hdr.Get("Retry-After") != "") != wantRA {
		t.Fatalf("Retry-After presence %q, want set=%v for code %s",
			hdr.Get("Retry-After"), wantRA, code)
	}
}

// --- routing, affinity, health ---

func TestGatewayAffinityStable(t *testing.T) {
	s := newGateStack(t, 3, serve.HandlerConfig{}, Config{})
	defer s.Close()

	lead := testLead(4, 7)
	frames, err := wire.AppendFrame(nil, lead)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{} // stream id -> backend URL observed
	perBackend := map[string]int{}
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("affinity-%d", i)
		want, ok := s.gw.BackendFor(id)
		if !ok {
			t.Fatal("no routable backend")
		}
		// Two runs of the same stream must land on the same backend.
		for run := 0; run < 2; run++ {
			status, _, hdr := postBody(t, s.ts.Client(), http.MethodPost,
				s.ts.URL+"/v1/stream", wire.ContentTypeSamples,
				map[string]string{"X-Stream-Id": id}, frames)
			if status != http.StatusOK {
				t.Fatalf("stream %s run %d: status %d", id, run, status)
			}
			got := hdr.Get("X-Rpgate-Backend")
			if got != want {
				t.Fatalf("stream %s run %d: relayed to %s, BackendFor says %s", id, run, got, want)
			}
			if prev, ok := seen[id]; ok && prev != got {
				t.Fatalf("stream %s moved %s -> %s with stable membership", id, prev, got)
			}
			seen[id] = got
			// The backend's own identity header must survive the relay.
			if inst := hdr.Get("X-Rpbeat-Instance"); inst != s.backendByURL(t, got).instance {
				t.Fatalf("stream %s: instance header %q from backend %s", id, inst, got)
			}
		}
		perBackend[seen[id]]++
	}
	if len(perBackend) < 2 {
		t.Errorf("12 streams all landed on one backend: %v (ring imbalance?)", perBackend)
	}
}

// TestGatewayKeepAliveAfterStream sends requests back to back over one
// kept-alive client connection, alternating /v1/stream with one-shot
// /v1/classify. A relayed stream must leave its client connection fit for
// the next request: every request gets 200, and every one after the first
// reuses the connection.
func TestGatewayKeepAliveAfterStream(t *testing.T) {
	s := newGateStack(t, 3, serve.HandlerConfig{}, Config{})
	defer s.Close()
	s.gw.CheckNow(context.Background())

	frame := mustFrame(t, testLead(2, 12))
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	for i := 0; i < 64; i++ {
		path := "/v1/stream"
		if i%2 == 1 {
			path = "/v1/classify"
		}
		req, err := http.NewRequest(http.MethodPost, s.ts.URL+path, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.ContentTypeSamples)
		req.Header.Set("X-Stream-Id", fmt.Sprintf("keepalive-%d", i))
		var reused bool
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		}))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d (%s): reading body: %v", i, path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d (%s): status %d: %s", i, path, resp.StatusCode, body)
		}
		if i > 0 && !reused {
			t.Fatalf("request %d (%s) did not reuse the kept-alive connection", i, path)
		}
	}
}

func TestGatewayHealthz(t *testing.T) {
	s := newGateStack(t, 2, serve.HandlerConfig{}, Config{})
	defer s.Close()
	s.gw.CheckNow(context.Background())

	status, body, _ := postBody(t, s.ts.Client(), http.MethodGet, s.ts.URL+"/healthz", "", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	var hr HealthResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if !hr.OK || len(hr.Backends) != 2 {
		t.Fatalf("healthz %+v, want ok with 2 backends", hr)
	}
	for _, b := range hr.Backends {
		if !b.Healthy || b.Draining || b.Divergent {
			t.Fatalf("backend %+v, want healthy after CheckNow", b)
		}
	}
	// A wrong verb on /healthz relays to a backend and comes back as the
	// backend's typed method_not_allowed.
	status, body, hdr := postBody(t, s.ts.Client(), http.MethodDelete, s.ts.URL+"/healthz", "", nil, nil)
	wantTyped(t, status, body, hdr, http.StatusMethodNotAllowed, apierr.CodeMethodNotAllowed)
}

func TestGatewayBackendDeathAndRecovery(t *testing.T) {
	s := newGateStack(t, 2, serve.HandlerConfig{}, Config{FailAfter: 1})
	defer s.Close()
	s.gw.CheckNow(context.Background())

	// Find a key owned by backend 2, then kill backend 2's listener.
	var victimKey string
	for i := 0; ; i++ {
		k := fmt.Sprintf("k-%d", i)
		if url, _ := s.gw.BackendFor(k); url == s.backends[1].ts.URL {
			victimKey = k
			break
		}
	}
	s.backends[1].ts.CloseClientConnections()
	s.backends[1].Close()

	// First relay attempt fails at the transport and (FailAfter=1) demotes
	// the backend; the client sees a typed retryable error.
	status, body, hdr := postBody(t, s.ts.Client(), http.MethodPost,
		s.ts.URL+"/v1/classify", wire.ContentTypeSamples,
		map[string]string{"X-Stream-Id": victimKey}, mustFrame(t, testLead(2, 3)))
	wantTyped(t, status, body, hdr, http.StatusServiceUnavailable, apierr.CodeServerOverloaded)

	// The key now rehashes to the survivor and serves fine.
	status, _, hdr2 := postBody(t, s.ts.Client(), http.MethodPost,
		s.ts.URL+"/v1/classify", wire.ContentTypeSamples,
		map[string]string{"X-Stream-Id": victimKey}, mustFrame(t, testLead(2, 3)))
	if status != http.StatusOK {
		t.Fatalf("failover classify status %d", status)
	}
	if got := hdr2.Get("X-Rpgate-Backend"); got != s.backends[0].ts.URL {
		t.Fatalf("failover went to %s, want survivor %s", got, s.backends[0].ts.URL)
	}

	// With every backend gone, the gateway sheds with a typed error.
	s.backends[0].ts.CloseClientConnections()
	s.backends[0].Close()
	for i := 0; i < 2; i++ { // burn the survivor's failure budget
		postBody(t, s.ts.Client(), http.MethodGet, s.ts.URL+"/v1/models", "", nil, nil)
	}
	status, body, hdr = postBody(t, s.ts.Client(), http.MethodGet, s.ts.URL+"/v1/models", "", nil, nil)
	wantTyped(t, status, body, hdr, http.StatusServiceUnavailable, apierr.CodeServerOverloaded)
	if !strings.Contains(string(body), "no routable backend") &&
		!strings.Contains(string(body), "unreachable") {
		t.Fatalf("unexpected shed message: %s", body)
	}
}

func mustFrame(t *testing.T, samples []int32) []byte {
	t.Helper()
	f, err := wire.AppendFrame(nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// --- catalog fan-out ---

func TestGatewayCatalogFanout(t *testing.T) {
	s := newGateStack(t, 3, serve.HandlerConfig{}, Config{})
	defer s.Close()
	s.gw.CheckNow(context.Background())

	// Upload a second model through the gateway: every backend must hold it
	// with the same digest.
	data := modelBytes(t, 2)
	status, body, _ := postBody(t, s.ts.Client(), http.MethodPost,
		s.ts.URL+"/v1/models?name=rollout", "application/octet-stream", nil, data)
	if status != http.StatusCreated {
		t.Fatalf("fan-out upload status %d: %s", status, body)
	}
	var ur UploadResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Ref != "rollout@v1" || len(ur.Backends) != 3 {
		t.Fatalf("upload response %+v, want rollout@v1 on 3 backends", ur)
	}
	for _, b := range s.backends {
		st, detail, _ := postBody(t, b.ts.Client(), http.MethodGet, b.ts.URL+"/v1/models/rollout@v1", "", nil, nil)
		if st != http.StatusOK {
			t.Fatalf("backend %s missing rollout@v1: %d %s", b.instance, st, detail)
		}
		var man catalog.Manifest
		if err := json.Unmarshal(detail, &man); err != nil {
			t.Fatal(err)
		}
		if man.Digest != ur.Digest {
			t.Fatalf("backend %s digest %s, want %s", b.instance, man.Digest, ur.Digest)
		}
	}

	// Re-uploading identical bytes is the same typed conflict one backend
	// would produce.
	status, body, hdr := postBody(t, s.ts.Client(), http.MethodPost,
		s.ts.URL+"/v1/models?name=rollout", "application/octet-stream", nil, data)
	wantTyped(t, status, body, hdr, http.StatusConflict, apierr.CodeModelExists)

	// Repoint the default fleet-wide, then retire the version fleet-wide.
	status, body, _ = postBody(t, s.ts.Client(), http.MethodPut,
		s.ts.URL+"/v1/default", "application/json", nil, []byte(`{"model":"rollout@v1"}`))
	if status != http.StatusOK {
		t.Fatalf("default fan-out status %d: %s", status, body)
	}
	for _, b := range s.backends {
		_, inv, _ := postBody(t, b.ts.Client(), http.MethodGet, b.ts.URL+"/v1/models", "", nil, nil)
		if !bytes.Contains(inv, []byte(`"default":"rollout@v1"`)) {
			t.Fatalf("backend %s default not moved: %s", b.instance, inv)
		}
	}
	// Deleting what the default resolves to is refused; repoint first, then
	// retire the version fleet-wide.
	if status, body, _ = postBody(t, s.ts.Client(), http.MethodPut,
		s.ts.URL+"/v1/default", "application/json", nil, []byte(`{"model":"m"}`)); status != http.StatusOK {
		t.Fatalf("default restore status %d: %s", status, body)
	}
	status, body, _ = postBody(t, s.ts.Client(), http.MethodDelete,
		s.ts.URL+"/v1/models/rollout@v1", "", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("delete fan-out status %d: %s", status, body)
	}
	status, body, hdr = postBody(t, s.ts.Client(), http.MethodDelete,
		s.ts.URL+"/v1/models/rollout@v1", "", nil, nil)
	wantTyped(t, status, body, hdr, http.StatusNotFound, apierr.CodeModelNotFound)
}

// TestGatewayUploadTooLarge: the gateway bounds a model upload at
// core.MaxModelBytes, as the backends do, and refuses a larger one with the
// typed payload_too_large before fanning anything out.
func TestGatewayUploadTooLarge(t *testing.T) {
	s := newGateStack(t, 2, serve.HandlerConfig{}, Config{})
	defer s.Close()

	status, body, hdr := postBody(t, s.ts.Client(), http.MethodPost,
		s.ts.URL+"/v1/models?name=big", "application/octet-stream", nil, make([]byte, core.MaxModelBytes+1))
	wantTyped(t, status, body, hdr, http.StatusRequestEntityTooLarge, apierr.CodePayloadTooLarge)
	for _, b := range s.backends {
		if st, _, _ := postBody(t, b.ts.Client(), http.MethodGet, b.ts.URL+"/v1/models/big", "", nil, nil); st != http.StatusNotFound {
			t.Fatalf("backend %s: GET /v1/models/big status %d after a refused upload, want 404", b.instance, st)
		}
	}
}

// TestGatewayDivergenceRefusal: a backend whose catalog digest for a fleet
// ref contradicts the authoritative view is refused routing until it
// converges.
func TestGatewayDivergenceRefusal(t *testing.T) {
	s := newGateStack(t, 2, serve.HandlerConfig{}, Config{})
	defer s.Close()

	// Poison backend 2: replace model "m" with different bytes under a new
	// version, so its m@v2 digest will disagree once backend 1 gains an
	// m@v2 of its own... simpler: upload divergent bytes as the same next
	// version on each backend directly (bypassing the gateway).
	for i, seed := range []uint64{5, 6} { // different bytes per backend
		st, body, _ := postBody(t, s.backends[i].ts.Client(), http.MethodPost,
			s.backends[i].ts.URL+"/v1/models?name=m", "application/octet-stream", nil, modelBytes(t, seed))
		if st != http.StatusCreated {
			t.Fatalf("backend seed upload: %d %s", st, body)
		}
	}
	s.gw.CheckNow(context.Background())

	st := s.gw.Status()
	if !st.OK {
		t.Fatalf("gateway not OK: %+v", st)
	}
	var divergent, routable int
	for _, b := range st.Backends {
		if b.Divergent {
			divergent++
			if !strings.Contains(b.LastErr, "divergence") {
				t.Fatalf("divergent backend lastErr %q", b.LastErr)
			}
		} else {
			routable++
		}
	}
	// Member order arbitration: the first backend's digest is adopted, the
	// second is the diverging one.
	if divergent != 1 || routable != 1 {
		t.Fatalf("divergent=%d routable=%d, want exactly one of each: %+v", divergent, routable, st.Backends)
	}
	if !st.Backends[1].Divergent {
		t.Fatalf("arbitration order: backend 2 should be the divergent one, got %+v", st.Backends)
	}

	// Every stream now routes to the one convergent backend, divergent keys
	// included.
	for i := 0; i < 8; i++ {
		url, ok := s.gw.BackendFor(fmt.Sprintf("div-%d", i))
		if !ok || url != s.backends[0].ts.URL {
			t.Fatalf("key div-%d routed to %s (ok=%v), want convergent backend", i, url, ok)
		}
	}

	// Convergence heals: overwrite backend 2's divergent version with
	// backend 1's bytes (delete + re-upload), reprobe, back in rotation.
	st2, body, _ := postBody(t, s.backends[1].ts.Client(), http.MethodDelete,
		s.backends[1].ts.URL+"/v1/models/m@v2", "", nil, nil)
	if st2 != http.StatusOK {
		t.Fatalf("heal delete: %d %s", st2, body)
	}
	st2, body, _ = postBody(t, s.backends[1].ts.Client(), http.MethodPost,
		s.backends[1].ts.URL+"/v1/models?name=m", "application/octet-stream", nil, modelBytes(t, 5))
	if st2 != http.StatusCreated {
		t.Fatalf("heal upload: %d %s", st2, body)
	}
	s.gw.CheckNow(context.Background())
	for _, b := range s.gw.Status().Backends {
		if b.Divergent {
			t.Fatalf("backend %s still divergent after convergence: %q", b.URL, b.LastErr)
		}
	}
}

// TestGatewayDrainingBackend: a backend refusing healthz with a typed
// retryable code is taken out of rotation as draining, not dead.
func TestGatewayDrainingBackend(t *testing.T) {
	// A fake backend that answers healthz with typed shutting_down.
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"shutting_down","message":"draining"}}`))
	}))
	defer draining.Close()
	healthy := newBackendStack(t, "b1", serve.HandlerConfig{})
	defer healthy.Close()

	gw, err := New(Config{Backends: []string{healthy.ts.URL, draining.URL}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gw.CheckNow(context.Background())

	st := gw.Status()
	if !st.Backends[1].Draining || !st.Backends[1].Healthy {
		t.Fatalf("typed-refusing backend %+v, want healthy+draining", st.Backends[1])
	}
	for i := 0; i < 8; i++ {
		if url, ok := gw.BackendFor(fmt.Sprintf("dr-%d", i)); !ok || url != healthy.ts.URL {
			t.Fatalf("key routed to %s (ok=%v), want the healthy backend", url, ok)
		}
	}
}

// TestGatewayCloseRefusesRelays: after Close, relays get typed
// shutting_down (the gateway's own drain contract).
func TestGatewayCloseRefusesRelays(t *testing.T) {
	s := newGateStack(t, 1, serve.HandlerConfig{}, Config{})
	defer s.Close()
	s.gw.Close()
	status, body, hdr := postBody(t, s.ts.Client(), http.MethodGet, s.ts.URL+"/v1/models", "", nil, nil)
	wantTyped(t, status, body, hdr, http.StatusServiceUnavailable, apierr.CodeShuttingDown)
}

// --- relay copy: the zero-allocation claim ---

func TestRelayCopyZeroAlloc(t *testing.T) {
	frame := mustFrame(t, testLead(2, 9))
	buf := make([]byte, relayBufBytes)
	src := bytes.NewReader(frame)
	flush := func() error { return nil }
	testutil.AssertZeroAllocN(t, "RelayCopy per relayed body", 1000, func() {
		src.Reset(frame)
		if _, err := RelayCopy(io.Discard, flush, src, buf); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRelayCopyDistinguishesWriteErrors(t *testing.T) {
	frame := mustFrame(t, testLead(2, 9))
	buf := make([]byte, 8)
	_, err := RelayCopy(failWriter{}, nil, bytes.NewReader(frame), buf)
	if !isRelayWriteError(err) {
		t.Fatalf("write failure not marked client-side: %v", err)
	}
	_, err = RelayCopy(io.Discard, nil, io.MultiReader(bytes.NewReader(frame), failReader{}), buf)
	if err == nil || isRelayWriteError(err) {
		t.Fatalf("read failure misclassified: %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("client gone") }

type failReader struct{}

func (failReader) Read(p []byte) (int, error) { return 0, fmt.Errorf("backend died") }

// BenchmarkRelayChunk is the BENCH gateway row's unit: one 360-sample
// binary frame through the relay loop.
func BenchmarkRelayChunk(b *testing.B) {
	lead := testLead(1, 9)[:360]
	frame, err := wire.AppendFrame(nil, lead)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, relayBufBytes)
	src := bytes.NewReader(frame)
	flush := func() error { return nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Reset(frame)
		if _, err := RelayCopy(io.Discard, flush, src, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGatewayRelayNoLeak: a burst of relayed requests leaves no goroutines
// behind after the full stack closes.
func TestGatewayRelayNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := newGateStack(t, 2, serve.HandlerConfig{}, Config{})
	frame := mustFrame(t, testLead(2, 4))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, _ := postBody(t, s.ts.Client(), http.MethodPost,
				s.ts.URL+"/v1/stream", wire.ContentTypeSamples,
				map[string]string{"X-Stream-Id": fmt.Sprintf("leak-%d", i)}, frame)
			if status != http.StatusOK {
				t.Errorf("stream %d: status %d: %s", i, status, body)
			}
		}(i)
	}
	wg.Wait()
	s.ts.Client().Transport.(*http.Transport).CloseIdleConnections()
	s.Close()
	waitGoroutines(t, baseline+2)
}
