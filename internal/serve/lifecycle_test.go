package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"rpbeat/internal/apierr"
	"rpbeat/internal/catalog"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/testutil"
)

// TestModelLifecycleEndToEnd is the full admin story against a live server:
// upload a trained model, classify against it by pinned reference, upload a
// second version, watch the floating name move while the pin stays, retire
// the old version, and get the typed model_not_found afterwards — with the
// pipeline hot path still allocation-free on the uploaded model.
func TestModelLifecycleEndToEnd(t *testing.T) {
	m, _ := testTrainedModel(t)

	// The server starts over an empty catalog: models arrive by upload only.
	cat := catalog.New()
	eng := pipeline.NewEngine(cat, pipeline.EngineConfig{Workers: 2})
	ts := httptest.NewServer(NewHandler(eng, HandlerConfig{}))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})

	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "lc", Seconds: 30, Seed: 5, PVCRate: 0.15}).Leads[0]

	classify := func(ref string) (*http.Response, ClassifyResponse) {
		t.Helper()
		body, _ := json.Marshal(ClassifyRequest{Model: ref, Samples: lead})
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out ClassifyResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		return resp, out
	}

	// With nothing uploaded, even the default reference is a typed miss.
	resp, _ := classify("")
	wantAPIError(t, resp, http.StatusNotFound, apierr.CodeModelNotFound)

	// --- upload v1 (binary codec form, as a deployment tool would) ---
	var bin bytes.Buffer
	if err := m.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/models?name=ecg", "application/octet-stream", &bin)
	if err != nil {
		t.Fatal(err)
	}
	var man1 catalog.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&man1); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload v1: %d", resp.StatusCode)
	}
	if man1.Ref() != "ecg@v1" || man1.Digest == "" {
		t.Fatalf("v1 manifest = %+v", man1)
	}
	wantDigest, err := m.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if man1.Digest != wantDigest {
		t.Fatal("server recomputed a different digest than the client's model")
	}

	// Classify by the pinned reference.
	resp, got := classify("ecg@v1")
	if resp.StatusCode != http.StatusOK || got.Model != "ecg@v1" || got.Total == 0 {
		t.Fatalf("classify ecg@v1: %d, %+v", resp.StatusCode, got)
	}
	v1Total := got.Total

	// Re-uploading identical bytes is a typed conflict, not a new version.
	bin.Reset()
	if err := m.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/models?name=ecg", "application/octet-stream", &bin)
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusConflict, apierr.CodeModelExists)

	// --- upload v2: same shape, one projection element flipped (JSON form) ---
	m2 := *m
	P2 := m.P.Clone()
	if P2.El[0] == 0 {
		P2.El[0] = 1
	} else {
		P2.El[0] = 0
	}
	m2.P = P2
	js, err := json.Marshal(&m2)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/models?name=ecg", "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	var man2 catalog.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&man2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || man2.Ref() != "ecg@v2" {
		t.Fatalf("upload v2: %d, %+v", resp.StatusCode, man2)
	}

	// The floating name now resolves to v2; the pin still serves v1.
	var detail ModelDetail
	resp, err = http.Get(ts.URL + "/v1/models/ecg")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if detail.Version != 2 || !detail.Latest || len(detail.Versions) != 2 {
		t.Fatalf("GET /v1/models/ecg = %+v", detail)
	}
	resp, got = classify("ecg")
	if resp.StatusCode != http.StatusOK || got.Model != "ecg@v2" {
		t.Fatalf("classify ecg after v2: %d, model %q", resp.StatusCode, got.Model)
	}
	resp, got = classify("ecg@v1")
	if resp.StatusCode != http.StatusOK || got.Model != "ecg@v1" || got.Total != v1Total {
		t.Fatalf("classify ecg@v1 after v2: %d, %+v", resp.StatusCode, got)
	}

	// --- retire v1 ---
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/ecg@v1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete ecg@v1: %d: %s", resp.StatusCode, raw)
	}
	var del DeleteResponse
	if err := json.Unmarshal(raw, &del); err != nil || del.Deleted != "ecg@v1" {
		t.Fatalf("delete body %s", raw)
	}

	// The retired version is a typed miss; the survivor still serves.
	resp, _ = classify("ecg@v1")
	wantAPIError(t, resp, http.StatusNotFound, apierr.CodeModelNotFound)
	resp, got = classify("ecg")
	if resp.StatusCode != http.StatusOK || got.Model != "ecg@v2" {
		t.Fatalf("survivor broken after delete: %d, %+v", resp.StatusCode, got)
	}

	// --- the uploaded model's hot path is still allocation-free ---
	entry, err := eng.Catalog().Snapshot().Resolve("ecg")
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := pipeline.New(entry.Emb, pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	beats := 0
	for _, v := range lead { // warm-up: rings and FIFOs at capacity
		beats += len(pushOne(pipe, v))
	}
	if beats == 0 {
		t.Fatal("warm-up emitted no beats")
	}
	next := 0
	testutil.AssertZeroAllocN(t, "steady-state Push on the uploaded model", 10, func() {
		for i := 0; i < 3600; i++ {
			pushOne(pipe, lead[next])
			next++
			if next == len(lead) {
				next = 0
			}
		}
	})
}
