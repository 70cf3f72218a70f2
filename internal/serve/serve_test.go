package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rpbeat/internal/apierr"
	"rpbeat/internal/beatset"
	"rpbeat/internal/catalog"
	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/fixp"
	"rpbeat/internal/pipeline"
)

var (
	modelOnce sync.Once
	modelVal  *core.Model
	embVal    *core.Embedded
	embErr    error
)

// testTrainedModel trains one reduced-scale model per test binary and
// returns its float form (what uploads carry) and quantized form (the
// classification reference).
func testTrainedModel(t *testing.T) (*core.Model, *core.Embedded) {
	t.Helper()
	modelOnce.Do(func() {
		ds, err := beatset.Build(beatset.Config{Seed: 31, Scale: 0.03})
		if err != nil {
			embErr = err
			return
		}
		m, _, err := core.Train(ds, core.Config{
			Coeffs: 8, Downsample: 4, PopSize: 4, Generations: 2,
			SCGIters: 50, MinARR: 0.9, Seed: 31,
		})
		if err != nil {
			embErr = err
			return
		}
		modelVal = m
		embVal, embErr = m.Quantize(fixp.MFLinear)
	})
	if embErr != nil {
		t.Fatal(embErr)
	}
	return modelVal, embVal
}

// testServer boots a handler over a catalog holding the trained model as
// default@v1.
func testServer(t *testing.T) (*httptest.Server, *pipeline.Engine, *core.Embedded) {
	t.Helper()
	m, emb := testTrainedModel(t)
	cat := catalog.New()
	if _, err := cat.Put("default", m, nil); err != nil {
		t.Fatal(err)
	}
	eng := pipeline.NewEngine(cat, pipeline.EngineConfig{Workers: 2})
	ts := httptest.NewServer(NewHandler(eng, HandlerConfig{}))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return ts, eng, emb
}

// pushOne is a one-sample PushChunk: it feeds p the sample v and returns
// the beats it finalized, reused by p's next call.
func pushOne(p *pipeline.Pipeline, v int32) (beats []pipeline.BeatResult) {
	p.PushChunk([]int32{v}, func(b []pipeline.BeatResult) { beats = b })
	return beats
}

// wantAPIError asserts a response carries the typed JSON error contract:
// the expected HTTP status and machine-readable code.
func wantAPIError(t *testing.T, resp *http.Response, status int, code apierr.Code) {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, status, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error Content-Type = %q, want application/json", ct)
	}
	var body ErrorResponse
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("error body is not the typed contract: %s", raw)
	}
	if body.Error.Code != code {
		t.Fatalf("error code = %q, want %q (message %q)", body.Error.Code, code, body.Error.Message)
	}
	if body.Error.Message == "" {
		t.Fatal("error message empty")
	}
}

func TestHealthAndModels(t *testing.T) {
	ts, _, emb := testServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if models.Default != "default" || len(models.Models) != 1 {
		t.Fatalf("models = %+v", models)
	}
	mi := models.Models[0]
	if mi.Name != "default" || mi.Version != 1 || !mi.Default || !mi.Latest {
		t.Fatalf("model info = %+v", mi)
	}
	if mi.K != emb.K || mi.MemoryBytes != emb.MemoryBytes() || mi.HostBytes != emb.HostBytes() {
		t.Fatalf("model info mismatch: %+v", mi)
	}
	if mi.Digest == "" || mi.SizeBytes == 0 || mi.CreatedAt.IsZero() {
		t.Fatalf("manifest fields missing: %+v", mi)
	}
}

func TestClassifyMatchesBatchPath(t *testing.T) {
	ts, _, emb := testServer(t)
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "s", Seconds: 60, Seed: 8, PVCRate: 0.15})

	body, _ := json.Marshal(ClassifyRequest{Samples: rec.Leads[0]})
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("classify: %d: %s", resp.StatusCode, raw)
	}
	var got ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Model != "default@v1" {
		t.Fatalf("response model = %q, want the resolved default@v1", got.Model)
	}

	want, err := pipeline.BatchClassify(context.Background(), emb, rec.Leads[0], pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != len(want) || len(got.Beats) != len(want) {
		t.Fatalf("server found %d beats, reference %d", got.Total, len(want))
	}
	for i, b := range want {
		if got.Beats[i].Sample != b.Peak || got.Beats[i].Class != b.Decision.String() {
			t.Fatalf("beat %d: server (%d,%s) != reference (%d,%v)",
				i, got.Beats[i].Sample, got.Beats[i].Class, b.Peak, b.Decision)
		}
	}
	if got.Total == 0 {
		t.Fatal("no beats classified")
	}
}

func TestClassifyErrors(t *testing.T) {
	ts, _, _ := testServer(t)

	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(`{"samples":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)

	resp, err = http.Post(ts.URL+"/v1/classify", "application/json",
		strings.NewReader(`{"model":"nope","samples":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusNotFound, apierr.CodeModelNotFound)

	// Malformed model reference: syntax error, not a lookup miss.
	resp, err = http.Post(ts.URL+"/v1/classify", "application/json",
		strings.NewReader(`{"model":"default@vX","samples":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)

	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(`{not json`))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)
}

func TestWrongMethodAndUnknownRoute(t *testing.T) {
	ts, _, _ := testServer(t)
	cases := []struct {
		method, path string
	}{
		{http.MethodDelete, "/healthz"},
		{http.MethodGet, "/v1/classify"},
		{http.MethodGet, "/v1/stream"},
		{http.MethodPut, "/v1/models"},
		{http.MethodPost, "/v1/models/default@v1"},
		{http.MethodPost, "/v1/default"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		wantAPIError(t, resp, http.StatusMethodNotAllowed, apierr.CodeMethodNotAllowed)
	}

	resp, err := http.Get(ts.URL + "/v2/everything")
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusNotFound, apierr.CodeNotFound)
}

func TestAdminErrors(t *testing.T) {
	ts, _, _ := testServer(t)

	// Upload without a name.
	resp, err := http.Post(ts.URL+"/v1/models", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)

	// Upload that is neither a binary nor a JSON model.
	resp, err = http.Post(ts.URL+"/v1/models?name=junk", "application/octet-stream",
		strings.NewReader("definitely not a model"))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)

	// Upload under a malformed name.
	resp, err = http.Post(ts.URL+"/v1/models?name=bad@name", "application/octet-stream",
		strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)

	// Manifest detail of an unknown model / malformed reference.
	resp, err = http.Get(ts.URL + "/v1/models/ghost")
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusNotFound, apierr.CodeModelNotFound)
	resp, err = http.Get(ts.URL + "/v1/models/default@v")
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)

	// Delete requires an explicit version; floating and malformed refs fail.
	for ref, want := range map[string]struct {
		status int
		code   apierr.Code
	}{
		"default":    {http.StatusBadRequest, apierr.CodeBadInput},
		"default@v9": {http.StatusNotFound, apierr.CodeModelNotFound},
		"default@v1": {http.StatusBadRequest, apierr.CodeBadInput}, // the default's only version
		"@v1":        {http.StatusBadRequest, apierr.CodeBadInput},
	} {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/"+ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		wantAPIError(t, resp, want.status, want.code)
	}

	// Default must resolve; body must parse.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/default", strings.NewReader(`{"model":"ghost"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusNotFound, apierr.CodeModelNotFound)

	req, err = http.NewRequest(http.MethodPut, ts.URL+"/v1/default", strings.NewReader(`{`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)
}

func TestUploadTooLarge(t *testing.T) {
	m, _ := testTrainedModel(t)
	cat := catalog.New()
	if _, err := cat.Put("default", m, nil); err != nil {
		t.Fatal(err)
	}
	eng := pipeline.NewEngine(cat, pipeline.EngineConfig{Workers: 1})
	ts := httptest.NewServer(NewHandler(eng, HandlerConfig{}))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})

	resp, err := http.Post(ts.URL+"/v1/models?name=big", "application/octet-stream",
		bytes.NewReader(make([]byte, core.MaxModelBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusRequestEntityTooLarge, apierr.CodePayloadTooLarge)
}

func TestStreamMatchesSequentialPipeline(t *testing.T) {
	ts, _, emb := testServer(t)
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "st", Seconds: 60, Seed: 9, PVCRate: 0.1})
	lead := rec.Leads[0]

	// Sequential reference over the same samples.
	pipe, err := pipeline.New(emb, pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var want []pipeline.BeatResult
	for _, v := range lead {
		want = append(want, pushOne(pipe, v)...)
	}
	want = append(want, pipe.Flush()...)

	// NDJSON request body: one chunk per second of signal.
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for off := 0; off < len(lead); off += 360 {
		end := off + 360
		if end > len(lead) {
			end = len(lead)
		}
		if err := enc.Encode(StreamChunk{Samples: lead[off:end]}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d", resp.StatusCode)
	}

	var got []StreamBeat
	var done StreamDone
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"error"`)) {
			t.Fatalf("server error line: %s", line)
		}
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &done); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var b StreamBeat
		if err := json.Unmarshal(line, &b); err != nil {
			t.Fatal(err)
		}
		got = append(got, b)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !done.Done || done.Samples != len(lead) || done.Beats != len(got) {
		t.Fatalf("summary %+v (got %d beats, sent %d samples)", done, len(got), len(lead))
	}
	if done.Model != "default@v1" {
		t.Fatalf("summary model = %q, want the pinned default@v1", done.Model)
	}
	if len(got) != len(want) {
		t.Fatalf("stream endpoint emitted %d beats, sequential pipeline %d", len(got), len(want))
	}
	for i, b := range want {
		if got[i].Sample != b.Peak || got[i].Class != b.Decision.String() {
			t.Fatalf("beat %d: endpoint (%d,%s) != pipeline (%d,%v)",
				i, got[i].Sample, got[i].Class, b.Peak, b.Decision)
		}
	}
	if len(got) == 0 {
		t.Fatal("no beats streamed")
	}
}

func TestStreamUnknownModel(t *testing.T) {
	ts, _, _ := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/stream?model=nope", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusNotFound, apierr.CodeModelNotFound)

	resp, err = http.Post(ts.URL+"/v1/stream?model=bad@@ref", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)
}

func TestStreamResumeFrom(t *testing.T) {
	ts, _, emb := testServer(t)
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "rs", Seconds: 30, Seed: 11, PVCRate: 0.1}).Leads[0]
	const base = 3000

	// Sequential reference: a pipeline resumed at the same base.
	pipe, err := pipeline.New(emb, pipeline.Config{BaseSample: base})
	if err != nil {
		t.Fatal(err)
	}
	var want []pipeline.BeatResult
	for _, v := range lead[base:] {
		want = append(want, pushOne(pipe, v)...)
	}
	want = append(want, pipe.Flush()...)
	if len(want) == 0 {
		t.Fatal("reference resumed pipeline found no beats")
	}

	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for off := base; off < len(lead); off += 360 {
		end := off + 360
		if end > len(lead) {
			end = len(lead)
		}
		if err := enc.Encode(StreamChunk{Samples: lead[off:end]}); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ResumeFromHeader, strconv.Itoa(base))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed stream: %d", resp.StatusCode)
	}
	var got []StreamBeat
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"error"`)) {
			t.Fatalf("server error line: %s", line)
		}
		if bytes.Contains(line, []byte(`"done"`)) {
			continue
		}
		var b StreamBeat
		if err := json.Unmarshal(line, &b); err != nil {
			t.Fatal(err)
		}
		got = append(got, b)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed endpoint emitted %d beats, resumed pipeline %d", len(got), len(want))
	}
	for i, b := range want {
		if got[i].Sample != b.Peak || got[i].DetectedAt != b.DetectedAt {
			t.Fatalf("beat %d: endpoint (%d@%d) != pipeline (%d@%d) — indices must be absolute",
				i, got[i].Sample, got[i].DetectedAt, b.Peak, b.DetectedAt)
		}
	}

	// A malformed header is the client's fault, refused before any compute.
	for _, h := range []string{"x", "-1", "2.5"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(ResumeFromHeader, h)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)
	}
}

func TestStreamBadChunk(t *testing.T) {
	ts, _, _ := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", strings.NewReader("{not json}\n"))
	if err != nil {
		t.Fatal(err)
	}
	// Nothing was streamed before the bad chunk, so the error arrives as a
	// plain typed response, status and all.
	wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)
}
