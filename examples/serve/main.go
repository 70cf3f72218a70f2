// Serving: the classifier as a network service.
//
// Everything before this example runs the pipeline in-process. A monitoring
// deployment looks different: one server holds the trained models, and many
// lightweight acquisition clients (one per patient) push samples at it —
// whole records for retrospective analysis, or chunk-by-chunk as the ADC
// fills buffers. cmd/rpserve is that server; this example boots its handler
// on a loopback port, trains a small model for its catalog, and exercises
// both data paths with a plain HTTP client, exactly as an external program
// would:
//
//   - POST /v1/classify: a whole record in one JSON request (batch path),
//     then the same record again over the binary sample transport
//     (application/x-rpbeat-samples) to show the ~5x uplink saving;
//   - POST /v1/stream: the same record as 1-second NDJSON chunks, with beat
//     labels streaming back while the "acquisition" is still running.
//
// Run with: go run ./examples/serve
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"rpbeat/internal/beatset"
	"rpbeat/internal/catalog"
	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/serve"
	"rpbeat/internal/wire"
)

func main() {
	log.SetFlags(0)

	// --- train a small model and stand the server up ---
	fmt.Println("training a reduced-scale model for the catalog...")
	ds, err := beatset.Build(beatset.Config{Seed: 31, Scale: 0.03})
	if err != nil {
		log.Fatal(err)
	}
	m, _, err := core.Train(ds, core.Config{
		Coeffs: 8, Downsample: 4, PopSize: 4, Generations: 2,
		SCGIters: 50, MinARR: 0.9, Seed: 31,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The catalog versions models as name@vN; the first Put becomes the
	// default. cmd/rpserve adds persistence (-models-dir) and the admin
	// endpoints let clients upload more versions at runtime.
	cat := catalog.New()
	man, err := cat.Put("default", m, nil)
	if err != nil {
		log.Fatal(err)
	}
	entry, err := cat.Snapshot().Resolve(man.Ref())
	if err != nil {
		log.Fatal(err)
	}
	eng := pipeline.NewEngine(cat, pipeline.EngineConfig{})
	defer eng.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	go http.Serve(ln, serve.NewHandler(eng, serve.HandlerConfig{}))
	fmt.Printf("rpserve handler listening on %s (model %s: %d bytes on-node, digest %.12s…)\n\n",
		base, man.Ref(), entry.Emb.MemoryBytes(), man.Digest)

	// --- a "patient": 60 s of synthetic ECG with ectopic beats ---
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "patient-7", Seconds: 60, Seed: 7, PVCRate: 0.15})
	lead := rec.Leads[0]

	// --- batch path: the whole record in one request ---
	body, _ := json.Marshal(serve.ClassifyRequest{Samples: lead})
	resp, err := http.Post(base+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var batch serve.ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("POST /v1/classify: %d beats in one request: N=%d L=%d V=%d U=%d\n",
		batch.Total, batch.Counts["N"], batch.Counts["L"], batch.Counts["V"], batch.Counts["U"])

	// --- the same record over the binary sample transport: what a
	// bandwidth-bound acquisition node would actually uplink. Each frame
	// delta-codes its samples (int8 first differences when they fit), so
	// the record travels at ~1 byte/sample instead of ~5 as decimal JSON;
	// the server negotiates on the Content-Type and answers identically.
	binBody := wire.AppendFrames(nil, lead, 2048)
	resp, err = http.Post(base+"/v1/classify", wire.ContentTypeSamples, bytes.NewReader(binBody))
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		log.Fatalf("binary classify: %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var binBatch serve.ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&binBatch); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if binBatch.Total != batch.Total {
		log.Fatalf("binary transport classified %d beats, JSON %d", binBatch.Total, batch.Total)
	}
	fmt.Printf("POST /v1/classify (binary frames): same %d beats from %d request bytes (JSON took %d, %.1fx more)\n",
		binBatch.Total, len(binBody), len(body), float64(len(body))/float64(len(binBody)))

	// --- streaming path: 1-second chunks through an io.Pipe, so the request
	// body is still being produced while beat labels flow back ---
	chunkReader, chunkWriter := io.Pipe()
	go func() {
		enc := json.NewEncoder(chunkWriter)
		for off := 0; off < len(lead); off += 360 {
			end := off + 360
			if end > len(lead) {
				end = len(lead)
			}
			if err := enc.Encode(serve.StreamChunk{Samples: lead[off:end]}); err != nil {
				chunkWriter.CloseWithError(err)
				return
			}
		}
		chunkWriter.Close()
	}()

	start := time.Now()
	resp2, err := http.Post(base+"/v1/stream", "application/x-ndjson", chunkReader)
	if err != nil {
		log.Fatal(err)
	}
	defer resp2.Body.Close()

	streamed := 0
	firstBeat := time.Duration(0)
	var done serve.StreamDone
	sc := bufio.NewScanner(resp2.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		var line struct {
			Sample *int            `json:"sample"`
			Class  string          `json:"class"`
			Done   bool            `json:"done"`
			Beats  int             `json:"beats"`
			Error  json.RawMessage `json:"error"` // typed {"code","message"} body
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			log.Fatal(err)
		}
		switch {
		case len(line.Error) > 0:
			log.Fatalf("server: %s", line.Error)
		case line.Done:
			done = serve.StreamDone{Done: true, Beats: line.Beats}
		case line.Sample != nil:
			if streamed == 0 {
				firstBeat = time.Since(start)
			}
			streamed++
			if streamed <= 3 {
				fmt.Printf("  beat @%6d -> %s  (arrived %v after stream open)\n",
					*line.Sample, line.Class, time.Since(start).Round(time.Millisecond))
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("POST /v1/stream: %d beats over %d chunks in %v\n",
		done.Beats, (len(lead)+359)/360, time.Since(start).Round(time.Millisecond))

	fmt.Printf("\nfirst beat arrived %v after the stream opened — classification\n", firstBeat.Round(time.Millisecond))
	fmt.Println("overlaps acquisition; the batch path had to wait for the whole record.")

	// The two paths agree beat for beat, to the record's last sample (the
	// pipeline's bit-identity guarantee; see internal/pipeline).
	if streamed != batch.Total {
		log.Fatalf("streaming classified %d beats, the whole-record request %d", streamed, batch.Total)
	}
	fmt.Printf("both paths classified the same %d beats.\n", streamed)
}
