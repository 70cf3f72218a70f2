package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"rpbeat/internal/apierr"
	"rpbeat/internal/catalog"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/testutil"
	"rpbeat/internal/wire"
)

// testServerWith boots a handler with an explicit HandlerConfig over the
// shared trained model.
func testServerWith(t *testing.T, cfg HandlerConfig) *httptest.Server {
	t.Helper()
	m, _ := testTrainedModel(t)
	cat := catalog.New()
	if _, err := cat.Put("default", m, nil); err != nil {
		t.Fatal(err)
	}
	eng := pipeline.NewEngine(cat, pipeline.EngineConfig{Workers: 2})
	ts := httptest.NewServer(NewHandler(eng, cfg))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return ts
}

func postBody(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestClassifyBinaryMatchesJSON: the same record through the JSON body and
// through binary wire frames must produce byte-identical responses.
func TestClassifyBinaryMatchesJSON(t *testing.T) {
	ts, _, _ := testServer(t)
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "wb", Seconds: 30, Seed: 5, PVCRate: 0.1}).Leads[0]

	jsonBody, _ := json.Marshal(ClassifyRequest{Samples: lead})
	st1, resp1 := postBody(t, ts.URL+"/v1/classify", "application/json", jsonBody)
	if st1 != http.StatusOK {
		t.Fatalf("json classify: %d: %s", st1, resp1)
	}

	binBody := wire.AppendFrames(nil, lead, 1024)
	if len(binBody)*3 > len(jsonBody) {
		t.Fatalf("binary body %d bytes vs json %d: expected at least 3x compaction", len(binBody), len(jsonBody))
	}
	st2, resp2 := postBody(t, ts.URL+"/v1/classify", wire.ContentTypeSamples, binBody)
	if st2 != http.StatusOK {
		t.Fatalf("binary classify: %d: %s", st2, resp2)
	}
	if !bytes.Equal(resp1, resp2) {
		t.Fatalf("binary and JSON responses differ:\njson   %s\nbinary %s", resp1, resp2)
	}

	var got ClassifyResponse
	if err := json.Unmarshal(resp2, &got); err != nil {
		t.Fatal(err)
	}
	if got.Total == 0 || got.Model != "default@v1" {
		t.Fatalf("binary classify response: %+v", got)
	}

	// ?model= selects the model for the binary transport (no body field).
	st3, resp3 := postBody(t, ts.URL+"/v1/classify?model=default@v1", wire.ContentTypeSamples, binBody)
	if st3 != http.StatusOK || !bytes.Equal(resp3, resp2) {
		t.Fatalf("?model= binary classify: %d", st3)
	}
	st4, resp4 := postBody(t, ts.URL+"/v1/classify?model=nope", wire.ContentTypeSamples, binBody)
	if st4 != http.StatusNotFound {
		t.Fatalf("unknown model over binary: %d: %s", st4, resp4)
	}
}

// TestStreamBinaryMatchesNDJSON: the same chunk sequence as NDJSON lines
// and as binary frames must produce byte-identical response streams.
func TestStreamBinaryMatchesNDJSON(t *testing.T) {
	ts, _, _ := testServer(t)
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "ws", Seconds: 30, Seed: 6, PVCRate: 0.1}).Leads[0]

	var ndjson, frames []byte
	for off := 0; off < len(lead); off += 360 {
		end := min(off+360, len(lead))
		line, _ := json.Marshal(StreamChunk{Samples: lead[off:end]})
		ndjson = append(append(ndjson, line...), '\n')
		var err error
		frames, err = wire.AppendFrame(frames, lead[off:end])
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(frames)*3 > len(ndjson) {
		t.Fatalf("binary stream %d bytes vs ndjson %d: expected at least 3x compaction", len(frames), len(ndjson))
	}

	st1, resp1 := postBody(t, ts.URL+"/v1/stream", "application/x-ndjson", ndjson)
	st2, resp2 := postBody(t, ts.URL+"/v1/stream", wire.ContentTypeSamples, frames)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("stream statuses: ndjson %d, binary %d", st1, st2)
	}
	if !bytes.Equal(resp1, resp2) {
		t.Fatalf("stream responses differ:\nndjson %s\nbinary %s", resp1, resp2)
	}
	var done StreamDone
	lines := bytes.Split(bytes.TrimSpace(resp2), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &done); err != nil {
		t.Fatal(err)
	}
	if !done.Done || done.Samples != len(lead) || done.Beats == 0 {
		t.Fatalf("binary stream summary: %+v", done)
	}
}

// TestStreamBinaryBadFrame: malformed and oversized frames surface as the
// typed error contract.
func TestStreamBinaryBadFrame(t *testing.T) {
	ts, _, _ := testServer(t)

	resp, err := http.Post(ts.URL+"/v1/stream", wire.ContentTypeSamples, bytes.NewReader([]byte("XXXXjunk.....")))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)

	// A declared count beyond MaxFrameSamples: rejected before allocation.
	huge := []byte{'R', 'P', 'B', 'S', 1, 4, 0xff, 0xff, 0xff, 0xff}
	resp, err = http.Post(ts.URL+"/v1/stream", wire.ContentTypeSamples, bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusRequestEntityTooLarge, apierr.CodePayloadTooLarge)

	// Truncated mid-frame: typed bad_input, not a hang or a panic.
	good, _ := wire.AppendFrame(nil, []int32{1, 2, 3, 4})
	resp, err = http.Post(ts.URL+"/v1/classify", wire.ContentTypeSamples, bytes.NewReader(good[:len(good)-2]))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)

	// A body of individually-legal frames that decodes past the per-request
	// sample bound: width-1 delta frames expand ~4x beyond what the same
	// bytes could carry as JSON, so the sample count is bounded directly —
	// the decode loop stops at the first frame over the limit.
	flat := make([]int32, 1<<20)
	var big []byte
	for i := 0; i < 5; i++ { // 5 Mi samples > maxClassifySamples (4 Mi)
		if big, err = wire.AppendFrame(big, flat); err != nil {
			t.Fatal(err)
		}
	}
	resp, err = http.Post(ts.URL+"/v1/classify", wire.ContentTypeSamples, bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusRequestEntityTooLarge, apierr.CodePayloadTooLarge)
}

// TestClassifyPoolDropsHugeBuffers serves one maximal binary /v1/classify
// request (maxClassifySamples samples, a 60 s ecgsyn lead over and over)
// between 60 s ones out of one scratch, applying the keep policy after
// each as the handler does before the scratch goes back to its pool. A 60 s
// request keeps every buffer and the pipeline for the next one. The
// maximal one grows each buffer past its keepClassify* bound and its
// pipeline's beats buffer past keepClassifyBeats, and none of them
// survives the policy, so its body, decoded lead, beats and response do
// not outlive it. The test holds the scratch itself rather than reading
// the heap around the pool: under -race, sync.Pool drops a random quarter
// of its Puts.
func TestClassifyPoolDropsHugeBuffers(t *testing.T) {
	m, _ := testTrainedModel(t)
	cat := catalog.New()
	if _, err := cat.Put("default", m, nil); err != nil {
		t.Fatal(err)
	}
	eng := pipeline.NewEngine(cat, pipeline.EngineConfig{Workers: 1})
	defer eng.Close()
	s := &server{eng: eng}
	minute := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "keep", Seconds: 60, Seed: 8, PVCRate: 0.1}).Leads[0]
	small := wire.AppendFrames(nil, minute, 0)
	huge := func() []byte {
		lead := make([]int32, maxClassifySamples)
		for off := 0; off < len(lead); off += copy(lead[off:], minute) {
		}
		return wire.AppendFrames(nil, lead, 0)
	}()
	sc := new(classifyScratch)
	serveIn := func(body []byte) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))
		req.Header.Set("Content-Type", wire.ContentTypeSamples)
		rec := httptest.NewRecorder()
		s.classifyIn(sc, rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%d-byte request: %d: %s", len(body), rec.Code, rec.Body.Bytes())
		}
	}
	keptAll := func(after string) {
		t.Helper()
		sc.trim()
		if sc.body == nil || sc.samples == nil || sc.resp == nil || sc.pipe == nil {
			t.Fatalf("after %s the scratch kept body %v, samples %v, response %v, pipeline %v; want all",
				after, sc.body != nil, sc.samples != nil, sc.resp != nil, sc.pipe != nil)
		}
	}

	serveIn(small)
	keptAll("a 60 s request")
	serveIn(huge)
	t.Logf("a %d-byte request grew body %d B, samples %d, response %d B, beats %d",
		len(huge), cap(sc.body), cap(sc.samples), cap(sc.resp), sc.beats)
	if cap(sc.body) <= keepClassifyBody || cap(sc.samples) <= keepClassifySamples ||
		cap(sc.resp) <= keepClassifyResp || sc.beats <= keepClassifyBeats {
		t.Fatal("the maximal request stayed within a keep bound, so the policy is not exercised")
	}
	sc.trim()
	if sc.body != nil || sc.samples != nil || sc.resp != nil || sc.pipe != nil {
		t.Fatalf("after the maximal request the scratch kept body %d B, samples %d, response %d B, pipeline %v; want none",
			cap(sc.body), cap(sc.samples), cap(sc.resp), sc.pipe != nil)
	}
	serveIn(small)
	keptAll("a 60 s request that follows the maximal one")
}

// TestStreamEarlyErrorThenFollowUp ends /v1/stream requests with a typed
// error while most of their upload is still unread, once before any beat
// and once after beats have streamed, and follows each with a request from
// the same client. A stream response that ends before its uplink's EOF must
// not leave the kept-alive connection broken for the next request.
func TestStreamEarlyErrorThenFollowUp(t *testing.T) {
	ts, _, _ := testServer(t)
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	good := wire.AppendFrames(nil, ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "ee", Seconds: 8, Seed: 4}).Leads[0], 360)
	// A frame header with a bad magic, then bytes the handler never reads.
	bad := append([]byte("XXXXjunk.."), bytes.Repeat([]byte{'.'}, 64<<10)...)
	followUp := func(round int, after string) {
		t.Helper()
		// The body has no GetBody, so the transport cannot silently retry
		// the request on a fresh connection.
		resp, err := client.Post(ts.URL+"/v1/classify", wire.ContentTypeSamples, io.NopCloser(bytes.NewReader(good)))
		if err != nil {
			t.Fatalf("round %d: request after %s: %v", round, after, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: request after %s: status %d, err %v: %s", round, after, resp.StatusCode, err, body)
		}
	}
	for round := 0; round < 16; round++ {
		resp, err := client.Post(ts.URL+"/v1/stream", wire.ContentTypeSamples, bytes.NewReader(bad))
		if err != nil {
			t.Fatalf("round %d: stream: %v", round, err)
		}
		wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)
		followUp(round, "an error before any beat")

		// Good frames until the first beat line is out, then the bad frame.
		pr, pw := io.Pipe()
		go pw.Write(good)
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", pr)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.ContentTypeSamples)
		resp, err = client.Do(req)
		if err != nil {
			t.Fatalf("round %d: stream: %v", round, err)
		}
		br := bufio.NewReader(resp.Body)
		if line, err := br.ReadBytes('\n'); err != nil || !bytes.HasPrefix(line, []byte(`{"sample":`)) {
			t.Fatalf("round %d: first stream line %q: %v", round, line, err)
		}
		go func() {
			pw.Write(bad)
			pw.Close()
		}()
		rest, err := io.ReadAll(br)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("round %d: stream body: %v", round, err)
		}
		lines := bytes.Split(bytes.TrimSpace(rest), []byte("\n"))
		var er ErrorResponse
		if err := json.Unmarshal(lines[len(lines)-1], &er); err != nil || er.Error.Code != apierr.CodeBadInput {
			t.Fatalf("round %d: stream did not end with a typed bad_input line: %s", round, rest)
		}
		followUp(round, "an error after beats")
	}
}

// TestEndUplinkClosesAfterQuietUplink: a stream handler that ends while its
// client is still uploading, and quiet, must neither wait for the rest of
// the body nor offer the connection for another request. The response ends
// within about UplinkGrace and the server then closes the connection. The
// handler's writer is wrapped, as middleware wraps it.
func TestEndUplinkClosesAfterQuietUplink(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w = unwrapper{w}
		rc := http.NewResponseController(w)
		if err := rc.EnableFullDuplex(); err != nil {
			t.Error(err)
		}
		w.Write([]byte("x\n"))
		rc.Flush()
		EndUplink(w, r.Body)
	}))
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One chunk of an upload that never finishes.
	if _, err := io.WriteString(conn, "POST /v1/stream HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * UplinkGrace))
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil || string(body) != "x\n" {
		t.Fatalf("response body %q, err %v", body, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open after the response: read returned %v, want EOF", err)
	}
}

// unwrapper is a pass-through ResponseWriter wrapper, as middleware uses.
type unwrapper struct{ http.ResponseWriter }

func (u unwrapper) Unwrap() http.ResponseWriter { return u.ResponseWriter }

// TestCodecEquivalenceStdlibVsFast holds the fast codec to encoding/json on
// both sides of the wire. Each request body is also passed through
// encoding/json (Unmarshal, then Marshal): a body encoding/json rejects must
// get a typed bad_input, and the raw and re-encoded bodies must get the same
// status and, on success, the same bytes. Every success line must equal its
// json.Encoder re-encoding byte for byte. This is the guarantee that makes
// the fast codec invisible on the wire.
func TestCodecEquivalenceStdlibVsFast(t *testing.T) {
	ts, _, _ := testServer(t)
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "ab", Seconds: 20, Seed: 9, PVCRate: 0.2}).Leads[0]

	classifyBody, _ := json.Marshal(ClassifyRequest{Model: "default", Samples: lead})
	var ndjson []byte
	for off := 0; off < len(lead); off += 512 {
		end := min(off+512, len(lead))
		line, _ := json.Marshal(StreamChunk{Samples: lead[off:end]})
		ndjson = append(append(ndjson, line...), '\n')
	}
	cases := []struct {
		name, path, ct string
		body           []byte
	}{
		{"classify", "/v1/classify", "application/json", classifyBody},
		{"classify with whitespace", "/v1/classify", "application/json",
			[]byte(" {\n\t\"samples\" : [ 1017 , 1020, 1013, 998, 1004, 1011, 1002, 997, 1003, 1008," +
				" 1017 , 1020, 1013, 998, 1004, 1011, 1002, 997, 1003, 1008 ] } ")},
		{"classify folded keys", "/v1/classify", "application/json",
			[]byte(`{"SAMPLES":[1017,1020,1013,998,1004,1011,1002,997,1003,1008],"MODEL":"default"}`)},
		{"classify bad json", "/v1/classify", "application/json", []byte(`{"samples":[1,}`)},
		{"classify float sample", "/v1/classify", "application/json", []byte(`{"samples":[1.5]}`)},
		{"classify no samples", "/v1/classify", "application/json", []byte(`{"samples":[]}`)},
		{"classify unknown model", "/v1/classify", "application/json", []byte(`{"model":"nope","samples":[1,2,3]}`)},
		{"stream", "/v1/stream", "application/x-ndjson", ndjson},
		{"stream bad chunk", "/v1/stream", "application/x-ndjson", []byte("{\"samples\":[1,2]}\nnot json\n")},
	}
	for _, c := range cases {
		status, resp := postBody(t, ts.URL+c.path, c.ct, c.body)
		std, stdErr := stdlibReencode(c.path, c.body)
		if stdErr != nil {
			// encoding/json rejects the body, so the server must refuse it
			// too, as a typed bad_input (a trailing line on a stream).
			lines := bytes.Split(bytes.TrimSpace(resp), []byte("\n"))
			var er ErrorResponse
			if err := json.Unmarshal(lines[len(lines)-1], &er); err != nil || er.Error.Code != apierr.CodeBadInput {
				t.Fatalf("%s: encoding/json rejects the body (%v), server answered %d: %s", c.name, stdErr, status, resp)
			}
			continue
		}
		stdStatus, stdResp := postBody(t, ts.URL+c.path, c.ct, std)
		if status != stdStatus {
			t.Fatalf("%s: status raw %d != re-encoded %d", c.name, status, stdStatus)
		}
		if status != http.StatusOK {
			continue
		}
		if !bytes.Equal(resp, stdResp) {
			t.Fatalf("%s: responses differ:\nraw        %s\nre-encoded %s", c.name, resp, stdResp)
		}
		for _, line := range bytes.SplitAfter(resp, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var v any = new(StreamBeat)
			switch {
			case c.path == "/v1/classify":
				v = new(ClassifyResponse)
			case bytes.HasPrefix(line, []byte(`{"done"`)):
				v = new(StreamDone)
			}
			if err := json.Unmarshal(line, v); err != nil {
				t.Fatalf("%s: line %q: %v", c.name, line, err)
			}
			var enc bytes.Buffer
			json.NewEncoder(&enc).Encode(v)
			if !bytes.Equal(line, enc.Bytes()) {
				t.Fatalf("%s: line differs from encoding/json:\nserved   %s\nencoding %s", c.name, line, enc.Bytes())
			}
		}
	}
}

// stdlibReencode passes a request body through encoding/json: a classify
// body as one ClassifyRequest, a stream body line by line as StreamChunks.
func stdlibReencode(path string, body []byte) ([]byte, error) {
	if path == "/v1/classify" {
		var req ClassifyRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return json.Marshal(req)
	}
	var out []byte
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 {
			continue // the server skips blank lines
		}
		var chunk StreamChunk
		if err := json.Unmarshal(line, &chunk); err != nil {
			return nil, err
		}
		enc, err := json.Marshal(chunk)
		if err != nil {
			return nil, err
		}
		out = append(append(out, enc...), '\n')
	}
	return out, nil
}

// TestDecodeChunkLineReusesBuffer pins the stream handler's chunk decoding,
// which runs through wire.UplinkReader: across NDJSON lines of different
// lengths the decoded samples reuse one backing array, and a warm line
// decodes with zero allocations.
func TestDecodeChunkLineReusesBuffer(t *testing.T) {
	lines := [][]byte{
		[]byte(`{"samples":[1017,1020,1013,998]}` + "\n"),
		[]byte(`{"samples":[1,2,3,4,5,6,7,8]}` + "\n"),
		[]byte(`{"samples":[-5]}` + "\n"),
	}
	rd := bytes.NewReader(nil)
	ur := wire.NewUplinkReader(rd, false)
	decode := func(line []byte) []int32 {
		rd.Reset(line)
		_, samples, err := ur.Next()
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	var base *int32
	for round := 0; round < 10; round++ {
		for _, line := range lines {
			samples := decode(line)
			if round == 0 {
				base = &samples[:1][0] // the first round grows the array
			} else if &samples[:1][0] != base {
				t.Fatal("chunk slice was reallocated across lines")
			}
		}
	}

	testutil.AssertZeroAlloc(t, "chunk line decoding on a warm reader", func() {
		decode(lines[0])
	})
}

// TestStreamServeRowZeroAlloc is the stream serve row's invariant end to
// end above HTTP: reading a chunk line through the handler's uplink reader
// and pushing it through an engine stream — the whole per-chunk serving path
// between the socket and the classifier — allocates nothing at steady
// state (worker-side allocations included; AllocsPerRun counts globally).
func TestStreamServeRowZeroAlloc(t *testing.T) {
	m, _ := testTrainedModel(t)
	cat := catalog.New()
	if _, err := cat.Put("m", m, nil); err != nil {
		t.Fatal(err)
	}
	eng := pipeline.NewEngine(cat, pipeline.EngineConfig{Workers: 1})
	defer eng.Close()
	ctx := context.Background()
	st, err := eng.Open(ctx, "m", pipeline.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "za", Seconds: 60, Seed: 3, PVCRate: 0.1}).Leads[0]
	var lines [][]byte
	for off := 0; off+360 <= len(lead); off += 360 {
		line, _ := json.Marshal(StreamChunk{Samples: lead[off : off+360]})
		lines = append(lines, append(line, '\n'))
	}
	rd := bytes.NewReader(nil)
	ur := wire.NewUplinkReader(rd, false)
	serveLine := func(line []byte) error {
		rd.Reset(line)
		_, chunk, err := ur.Next()
		if err != nil {
			return err
		}
		return st.Send(ctx, chunk)
	}
	drain := func() {
		for st.PendingSamples() > 0 {
			runtime.Gosched()
		}
	}
	// Warm-up: a full pass grows every ring, FIFO and pool to steady state.
	for _, line := range lines {
		if err := serveLine(line); err != nil {
			t.Fatal(err)
		}
	}
	drain()

	next := 0
	var loopErr error
	testutil.AssertZeroAllocN(t, "steady-state stream serving (5 chunks per run)", 10, func() {
		for i := 0; i < 5; i++ {
			if loopErr = serveLine(lines[next]); loopErr != nil {
				return
			}
			next = (next + 1) % len(lines)
			drain()
		}
	})
	if loopErr != nil {
		t.Fatal(loopErr)
	}
}
