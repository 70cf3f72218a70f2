package main

// The serve experiment family: what the HTTP layer itself costs. The
// kernel/pipeline/engine families measure everything below the socket; these
// rows measure the wire — request decoding, response encoding and the
// transport size of a record — for the two codecs the serving layer runs,
// the internal/wire fast JSON path and the binary sample transport, against
// a stdlib encoding/json decode baseline.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rpbeat/internal/catalog"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/rng"
	"rpbeat/internal/serve"
	"rpbeat/internal/wire"
)

// serveBenchBlock is the "serve" section of BENCH_<n>.json.
type serveBenchBlock struct {
	// Batch is the /v1/classify request rate through a real loopback HTTP
	// server, per request encoding (whole 30 s record per request).
	Batch serveBatchMetrics `json:"batch"`
	// Stream has one row per codec: the per-chunk decode cost of the
	// serving layer (the wire rows CI guards for allocation regressions)
	// and, for the codecs the server runs, the end-to-end chunk rate
	// through a live /v1/stream request (which includes classification, so
	// codecs converge there — the decode columns are the codec comparison).
	Stream []serveStreamRow `json:"stream"`
	// WireBytes30s is the uplink size of the same 30 s record in each
	// transport encoding.
	WireBytes30s serveWireBytes `json:"wire_bytes_30s"`
	// Heads is the classifier-head A/B: the same binary-transport 30 s
	// /v1/classify request pinned to the fuzzy vs the bitemb model on one
	// server — everything on the wire identical, only the head differs.
	Heads serveHeadMetrics `json:"heads"`
}

type serveBatchMetrics struct {
	JSONReqPerSec   float64 `json:"json_req_per_sec"`
	BinaryReqPerSec float64 `json:"binary_req_per_sec"`
}

type serveHeadMetrics struct {
	FuzzyReqPerSec  float64 `json:"fuzzy_req_per_sec"`
	BitembReqPerSec float64 `json:"bitemb_req_per_sec"`
}

type serveStreamRow struct {
	Codec string `json:"codec"` // json_stdlib | json_fast | binary
	// DecodeChunksPerSec / DecodeAllocsPerOp are the codec-layer cost of
	// one 360-sample (one second) chunk: NDJSON line parse or frame
	// decode into the reused chunk buffer, exactly what the /v1/stream
	// handler runs per line. The fast rows must stay at 0 allocs/op.
	DecodeChunksPerSec float64 `json:"decode_chunks_per_sec"`
	DecodeAllocsPerOp  int64   `json:"decode_allocs_per_op"`
	// HTTPChunksPerSec is the end-to-end rate: a live loopback /v1/stream
	// request draining the same chunks through the engine. The json_stdlib
	// row has none: the server never decodes with encoding/json.
	HTTPChunksPerSec float64 `json:"http_chunks_per_sec,omitempty"`
}

type serveWireBytes struct {
	// JSONBody / BinaryBody: one /v1/classify body.
	JSONBody   int `json:"json_body"`
	BinaryBody int `json:"binary_body"`
	// JSONNDJSON / BinaryFrames: the same record chunked for /v1/stream
	// (360-sample chunks).
	JSONNDJSON   int `json:"json_ndjson"`
	BinaryFrames int `json:"binary_frames"`
	// JSONOverBinary is JSONBody / BinaryBody — how much uplink the binary
	// transport saves on a whole record.
	JSONOverBinary float64 `json:"json_over_binary"`
}

// serveCodecs enumerates the stream rows in comparison order.
var serveCodecs = []string{"json_stdlib", "json_fast", "binary"}

// runServeBench fills out.Serve and appends the serve/* rows to
// out.Results.
func runServeBench(out *benchFile) error {
	r := rng.New(6)
	cat := catalog.New()
	if _, err := cat.Put("bench", benchModel(r, 8, 50, 4), nil); err != nil {
		return err
	}
	if _, err := cat.Put("benchbit", benchBitembModel(r, 8, 50, 4), nil); err != nil {
		return err
	}
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "srv", Seconds: 30, Seed: 23, PVCRate: 0.1}).Leads[0]

	// --- wire bytes: the same record in every transport encoding ---
	jsonBody, err := json.Marshal(serve.ClassifyRequest{Samples: lead})
	if err != nil {
		return err
	}
	binBody := wire.AppendFrames(nil, lead, 2048)
	const chunkLen = 360
	var ndjson, frames []byte
	var chunkLines [][]byte
	for off := 0; off < len(lead); off += chunkLen {
		end := min(off+chunkLen, len(lead))
		line, err := json.Marshal(serve.StreamChunk{Samples: lead[off:end]})
		if err != nil {
			return err
		}
		chunkLines = append(chunkLines, line)
		ndjson = append(append(ndjson, line...), '\n')
		if frames, err = wire.AppendFrame(frames, lead[off:end]); err != nil {
			return err
		}
	}
	out.Serve.WireBytes30s = serveWireBytes{
		JSONBody:       len(jsonBody),
		BinaryBody:     len(binBody),
		JSONNDJSON:     len(ndjson),
		BinaryFrames:   len(frames),
		JSONOverBinary: float64(len(jsonBody)) / float64(len(binBody)),
	}

	// --- decode rows: the per-chunk codec cost of the /v1/stream handler ---
	frame, err := wire.AppendFrame(nil, lead[:chunkLen])
	if err != nil {
		return err
	}
	line := chunkLines[0]
	dst := make([]int32, 0, 2*chunkLen)
	decoders := map[string]func(b *testing.B){
		"json_stdlib": func(b *testing.B) {
			var chunk serve.StreamChunk
			chunk.Samples = dst
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chunk.Samples = chunk.Samples[:0]
				if err := json.Unmarshal(line, &chunk); err != nil {
					b.Fatal(err)
				}
			}
		},
		"json_fast": func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = wire.ParseChunk(dst, line)
				if err != nil {
					b.Fatal(err)
				}
			}
		},
		"binary": func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				dst, _, err = wire.DecodeFrame(dst[:0], frame)
				if err != nil {
					b.Fatal(err)
				}
			}
		},
	}

	// --- live server for the end-to-end rows ---
	httpRate := func(contentType string, body []byte, chunks int) (float64, error) {
		eng := pipeline.NewEngine(cat, pipeline.EngineConfig{})
		defer eng.Close()
		ts := httptest.NewServer(serve.NewHandler(eng, serve.HandlerConfig{}))
		defer ts.Close()
		best := 0.0
		for round := 0; round < 3; round++ {
			start := time.Now()
			resp, err := http.Post(ts.URL+"/v1/stream", contentType, bytes.NewReader(body))
			if err != nil {
				return 0, err
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return 0, err
			}
			if resp.StatusCode != http.StatusOK {
				return 0, fmt.Errorf("stream bench: %d: %s", resp.StatusCode, raw)
			}
			if rate := float64(chunks) / time.Since(start).Seconds(); rate > best {
				best = rate
			}
		}
		return best, nil
	}

	chunks := len(chunkLines)
	for _, codec := range serveCodecs {
		res := testing.Benchmark(decoders[codec])
		row := serveStreamRow{
			Codec:              codec,
			DecodeChunksPerSec: 1e9 / (float64(res.T.Nanoseconds()) / float64(res.N)),
			DecodeAllocsPerOp:  res.AllocsPerOp(),
		}
		out.Results = append(out.Results, record("serve/stream_decode_chunk_"+codec, res))
		var err error
		switch codec {
		case "json_fast":
			row.HTTPChunksPerSec, err = httpRate(wire.ContentTypeNDJSON, ndjson, chunks)
		case "binary":
			row.HTTPChunksPerSec, err = httpRate(wire.ContentTypeSamples, frames, chunks)
		}
		if err != nil {
			return err
		}
		out.Serve.Stream = append(out.Serve.Stream, row)
	}

	// --- batch req/s: the whole record per request, JSON vs binary ---
	{
		eng := pipeline.NewEngine(cat, pipeline.EngineConfig{})
		defer eng.Close()
		ts := httptest.NewServer(serve.NewHandler(eng, serve.HandlerConfig{}))
		defer ts.Close()
		post := func(contentType string, body []byte) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					resp, err := http.Post(ts.URL+"/v1/classify", contentType, bytes.NewReader(body))
					if err != nil {
						b.Fatal(err)
					}
					raw, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						b.Fatal(err)
					}
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("classify bench: %d: %s", resp.StatusCode, raw)
					}
				}
			}
		}
		jsonRes := testing.Benchmark(post("application/json", jsonBody))
		binRes := testing.Benchmark(post(wire.ContentTypeSamples, binBody))
		out.Results = append(out.Results,
			record("serve/batch_classify_30s_json", jsonRes),
			record("serve/batch_classify_30s_binary", binRes))
		out.Serve.Batch = serveBatchMetrics{
			JSONReqPerSec:   float64(jsonRes.N) / jsonRes.T.Seconds(),
			BinaryReqPerSec: float64(binRes.N) / binRes.T.Seconds(),
		}

		// --- head A/B: identical binary request, pinned per head ---
		pinned := func(ref string) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					resp, err := http.Post(ts.URL+"/v1/classify?model="+ref,
						wire.ContentTypeSamples, bytes.NewReader(binBody))
					if err != nil {
						b.Fatal(err)
					}
					raw, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						b.Fatal(err)
					}
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("head bench %s: %d: %s", ref, resp.StatusCode, raw)
					}
				}
			}
		}
		fuzzyRes := testing.Benchmark(pinned("bench@v1"))
		bitRes := testing.Benchmark(pinned("benchbit@v1"))
		out.Results = append(out.Results,
			record("serve/classify_30s_head_fuzzy", fuzzyRes),
			record("serve/classify_30s_head_bitemb", bitRes))
		out.Serve.Heads = serveHeadMetrics{
			FuzzyReqPerSec:  float64(fuzzyRes.N) / fuzzyRes.T.Seconds(),
			BitembReqPerSec: float64(bitRes.N) / bitRes.T.Seconds(),
		}
	}
	return nil
}
