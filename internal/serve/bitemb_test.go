package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
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
	bitembOnce sync.Once
	bitembVal  *core.Model
	bitembEmb  *core.Embedded
	bitembErr  error
)

// testTrainedBitembModel trains one reduced-scale binary-embedding model per
// test binary — the second head kind served next to the fuzzy default.
func testTrainedBitembModel(t *testing.T) (*core.Model, *core.Embedded) {
	t.Helper()
	bitembOnce.Do(func() {
		ds, err := beatset.Build(beatset.Config{Seed: 31, Scale: 0.03})
		if err != nil {
			bitembErr = err
			return
		}
		m, _, err := core.Train(ds, core.Config{
			Kind: core.KindBitemb, Coeffs: 8, Downsample: 4, PopSize: 4,
			Generations: 2, MinARR: 0.9, Seed: 31,
		})
		if err != nil {
			bitembErr = err
			return
		}
		bitembVal = m
		bitembEmb, bitembErr = m.Quantize(fixp.MFLinear)
	})
	if bitembErr != nil {
		t.Fatal(bitembErr)
	}
	return bitembVal, bitembEmb
}

// TestBitembUploadAndPinnedStream drives the binary head through the whole
// serving surface: upload through POST /v1/models (the manifest reports the
// kind), inventory through GET /v1/models, then a pinned /v1/stream whose
// beats must be bit-identical to a sequential pipeline run of the same
// model — all while the catalog's default stays the fuzzy model.
func TestBitembUploadAndPinnedStream(t *testing.T) {
	ts, _, _ := testServer(t)
	m, emb := testTrainedBitembModel(t)

	var bin bytes.Buffer
	if err := m.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/models?name=bin", "application/octet-stream", &bin)
	if err != nil {
		t.Fatal(err)
	}
	var man catalog.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&man); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d", resp.StatusCode)
	}
	if man.Ref() != "bin@v1" || man.Kind != "bitemb" {
		t.Fatalf("upload manifest = %+v", man)
	}
	wantDigest, err := m.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if man.Digest != wantDigest {
		t.Fatal("server recomputed a different digest for the bitemb upload")
	}

	// Inventory carries the kind; the default is still the fuzzy model.
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if models.Default != "default" {
		t.Fatalf("bitemb upload moved the default: %+v", models)
	}
	kinds := map[string]string{}
	for _, mi := range models.Models {
		kinds[mi.Ref()] = mi.Kind
	}
	if kinds["bin@v1"] != "bitemb" || kinds["default@v1"] != "fuzzy" {
		t.Fatalf("inventory kinds = %v", kinds)
	}

	// Pinned stream against the sequential reference.
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "bt", Seconds: 45, Seed: 21, PVCRate: 0.1}).Leads[0]
	pipe, err := pipeline.New(emb, pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var want []pipeline.BeatResult
	for _, v := range lead {
		want = append(want, pushOne(pipe, v)...)
	}
	want = append(want, pipe.Flush()...)
	if len(want) == 0 {
		t.Fatal("reference pipeline emitted no beats")
	}

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
	resp, err = http.Post(ts.URL+"/v1/stream?model=bin@v1", "application/x-ndjson", &body)
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
	if done.Model != "bin@v1" {
		t.Fatalf("summary model = %q, want bin@v1", done.Model)
	}
	if len(got) != len(want) {
		t.Fatalf("stream emitted %d beats, sequential pipeline %d", len(got), len(want))
	}
	for i, b := range want {
		if got[i].Sample != b.Peak || got[i].Class != b.Decision.String() {
			t.Fatalf("beat %d: endpoint (%d,%s) != pipeline (%d,%v)",
				i, got[i].Sample, got[i].Class, b.Peak, b.Decision)
		}
	}
}

// TestBitembUnderV1FramingIsBadInput uploads a bitemb payload whose version
// field was patched to the fuzzy framing's: the server must reject it with
// the typed bad_input contract (the decoder fails cleanly), never a 500.
func TestBitembUnderV1FramingIsBadInput(t *testing.T) {
	ts, _, _ := testServer(t)
	m, _ := testTrainedBitembModel(t)
	var bin bytes.Buffer
	if err := m.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	data := bin.Bytes()
	data[4], data[5] = 1, 0 // version LE → 1: bitemb bytes under the old framing
	resp, err := http.Post(ts.URL+"/v1/models?name=masq", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)
}
