package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rpbeat/internal/apierr"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/wire"
)

// overloadFrame builds one binary frame holding a short synthetic lead,
// enough signal for /v1/classify to find beats in.
func overloadFrame(t *testing.T) []byte {
	t.Helper()
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "ov", Seconds: 10, Seed: 11, PVCRate: 0.1}).Leads[0]
	frame, err := wire.AppendFrame(nil, lead)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestStreamCapShedsToBatchOnly drives the shed ladder end to end: fill the
// stream slots, observe the typed server_overloaded refusal (with
// Retry-After) for the next stream, confirm batch classification is still
// served, then release a slot and see streams admitted again.
func TestStreamCapShedsToBatchOnly(t *testing.T) {
	ts := testServerWith(t, HandlerConfig{MaxStreams: 2})

	// Fill both stream slots with held-open streams: the pipe body never
	// finishes until release, so each handler sits mid-stream.
	type held struct {
		done    chan struct{}
		release func()
	}
	var holds []held
	for i := 0; i < 2; i++ {
		pr, pw := io.Pipe()
		req, err := http.NewRequest("POST", ts.URL+"/v1/stream", pr)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.ContentTypeSamples)
		h := held{done: make(chan struct{}), release: func() { pw.Close() }}
		go func() {
			defer close(h.done)
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Errorf("held stream: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		holds = append(holds, h)
	}
	// Admission happens before the first body read, so polling healthz for
	// both slots is race-free.
	waitOpenStreams(t, ts, 2)

	// Third stream: refused with the typed error and Retry-After, before
	// any body was read.
	resp, err := http.Post(ts.URL+"/v1/stream", wire.ContentTypeSamples, strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed stream response missing Retry-After")
	}
	wantAPIError(t, resp, http.StatusServiceUnavailable, apierr.CodeServerOverloaded)

	// The ladder's point: batch still works while streams shed.
	frame := overloadFrame(t)
	resp, err = http.Post(ts.URL+"/v1/classify", wire.ContentTypeSamples, strings.NewReader(string(frame)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch while streams shed: status %d, want 200", resp.StatusCode)
	}

	// Releasing one stream reopens admission.
	holds[0].release()
	<-holds[0].done
	waitOpenStreams(t, ts, 1)
	resp, err = http.Post(ts.URL+"/v1/stream", wire.ContentTypeSamples, strings.NewReader(string(frame)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream after release: status %d, want 200", resp.StatusCode)
	}

	holds[1].release()
	<-holds[1].done
}

// TestBatchCap holds the ladder's second rung: with MaxBatch classify
// requests in flight, the next one is refused with the typed
// server_overloaded error. A pipe body keeps the first request in flight
// deterministically.
func TestBatchCap(t *testing.T) {
	ts := testServerWith(t, HandlerConfig{MaxBatch: 1})

	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, err := http.NewRequest("POST", ts.URL+"/v1/classify", pr)
		if err != nil {
			t.Errorf("held classify: %v", err)
			return
		}
		req.Header.Set("Content-Type", wire.ContentTypeSamples)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Errorf("held classify: %v", err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	waitInFlightBatch(t, ts, 1)

	resp, err := http.Post(ts.URL+"/v1/classify", wire.ContentTypeSamples, strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed batch response missing Retry-After")
	}
	wantAPIError(t, resp, http.StatusServiceUnavailable, apierr.CodeServerOverloaded)

	pw.Close() // empty body: the held request finishes (its status is moot)
	<-done
}

// TestPerTenantRateLimit: a tenant that exhausts its bucket gets the typed
// rate_limited 429 (with Retry-After) while a different tenant is untouched,
// and streams are metered by the same limiter.
func TestPerTenantRateLimit(t *testing.T) {
	ts := testServerWith(t, HandlerConfig{RatePerTenant: 0.001, RateBurst: 2})
	frame := overloadFrame(t)

	post := func(path, tenant string) *http.Response {
		req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(string(frame)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.ContentTypeSamples)
		req.Header.Set("X-Tenant", tenant)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// The burst admits exactly two requests; refill at 0.001/s is
	// negligible within the test.
	for i := 0; i < 2; i++ {
		resp := post("/v1/classify", "greedy")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := post("/v1/classify", "greedy")
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limited response missing Retry-After")
	}
	wantAPIError(t, resp, http.StatusTooManyRequests, apierr.CodeRateLimited)

	// Another tenant's bucket is independent.
	resp = post("/v1/classify", "patient")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant caught in greedy's limit: status %d", resp.StatusCode)
	}

	// Streams draw from the same bucket.
	sresp := post("/v1/stream", "greedy")
	wantAPIError(t, sresp, http.StatusTooManyRequests, apierr.CodeRateLimited)
}

// TestHealthzReportsOverload: the health body carries the gate counters, so
// shedding is observable without scraping logs.
func TestHealthzReportsOverload(t *testing.T) {
	ts := testServerWith(t, HandlerConfig{MaxStreams: 1})

	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := ts.Client().Post(ts.URL+"/v1/stream", wire.ContentTypeSamples, pr)
		if err != nil {
			t.Errorf("held stream: %v", err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	waitOpenStreams(t, ts, 1)
	resp, err := http.Post(ts.URL+"/v1/stream", wire.ContentTypeSamples, strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	h := getHealth(t, ts)
	if !h.OK {
		t.Fatal("health not ok")
	}
	if h.Overload.OpenStreams != 1 || h.Overload.ShedStreams != 1 {
		t.Fatalf("health overload = %+v, want 1 open, 1 shed", h.Overload)
	}
	pw.Close()
	<-done
}

// --- helpers ---

func getHealth(t *testing.T, ts *httptest.Server) HealthResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// waitOpenStreams polls /healthz until the gate reports n open streams.
func waitOpenStreams(t *testing.T, ts *httptest.Server, n int64) {
	t.Helper()
	waitHealth(t, ts, func(h HealthResponse) bool { return h.Overload.OpenStreams == n })
}

func waitInFlightBatch(t *testing.T, ts *httptest.Server, n int64) {
	t.Helper()
	waitHealth(t, ts, func(h HealthResponse) bool { return h.Overload.InFlightBatch == n })
}

func waitHealth(t *testing.T, ts *httptest.Server, ok func(HealthResponse) bool) {
	t.Helper()
	for i := 0; i < 4000; i++ {
		if ok(getHealth(t, ts)) {
			return
		}
	}
	t.Fatalf("health condition not reached; last: %+v", getHealth(t, ts))
}
