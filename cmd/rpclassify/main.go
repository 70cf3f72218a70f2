// Command rpclassify runs the complete embedded classification pipeline on
// a WFDB record: morphological filtering, wavelet peak detection, beat
// windowing, downsampling, 2-bit packed random projection and the integer
// neuro-fuzzy classifier. When the record carries annotations, it reports
// NDR/ARR against them.
//
// With -server it acts as an acquisition client instead: the record is
// posted to a running rpserve's /v1/classify, either as JSON or — with
// -wire binary — as the compact application/x-rpbeat-samples frame
// transport (~5x fewer uplink bytes), and the server's verdicts are scored
// the same way.
//
// Usage:
//
//	rpclassify -db ./db -record 100 -model model.json
//	rpclassify -db ./db -record 119 -model model.bin -alpha 0.02 -v
//	rpclassify -db ./db -record 100 -server http://localhost:8080
//	rpclassify -db ./db -record 100 -server http://localhost:8080 -wire binary -ref default@v1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strings"

	"rpbeat/internal/beatset"
	"rpbeat/internal/core"
	"rpbeat/internal/fixp"
	"rpbeat/internal/nfc"
	"rpbeat/internal/peak"
	"rpbeat/internal/serve"
	"rpbeat/internal/sigdsp"
	"rpbeat/internal/wfdb"
	"rpbeat/internal/wire"
)

func loadModel(path string) (*core.Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return core.Decode(data)
}

func main() {
	var (
		db      = flag.String("db", "db", "database directory (rpgen output)")
		record  = flag.String("record", "100", "record name")
		model   = flag.String("model", "model.json", "trained model (json or binary; local mode)")
		alpha   = flag.Float64("alpha", -1, "override alpha_test (-1 = use alpha_train; local mode)")
		verbose = flag.Bool("v", false, "print every beat decision")
		server  = flag.String("server", "", "classify via a running rpserve at this base URL instead of locally")
		wireFmt = flag.String("wire", "json", "request encoding with -server: json or binary")
		ref     = flag.String("ref", "", "catalog model reference with -server (default: the server's default model)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("rpclassify: ")

	if *wireFmt != "json" && *wireFmt != "binary" {
		log.Fatalf("-wire must be json or binary, not %q", *wireFmt)
	}
	if *server == "" && (*wireFmt != "json" || *ref != "") {
		log.Fatal("-wire and -ref only make sense with -server")
	}

	rec, err := wfdb.Load(*db, *record)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("record %s: %d signals, %.0f Hz, %.0f s, %d annotations\n",
		rec.Name, len(rec.Signals), rec.Fs, float64(len(rec.Signals[0]))/rec.Fs, len(rec.Ann))

	var peaks []int
	var decided []nfc.Decision
	if *server != "" {
		peaks, decided = classifyRemote(rec, *server, *wireFmt, *ref, *verbose)
	} else {
		peaks, decided = classifyLocal(rec, *model, *alpha, *verbose)
	}

	abnormal := 0
	for _, d := range decided {
		if d.Abnormal() {
			abnormal++
		}
	}
	fmt.Printf("classified: %d beats, %d flagged abnormal (%.1f%%)\n",
		len(decided), abnormal, 100*float64(abnormal)/float64(max(1, len(decided))))
	score(rec, peaks, decided)
}

// classifyLocal is the on-node path: the integer pipeline in-process.
func classifyLocal(rec *wfdb.Record, modelPath string, alpha float64, verbose bool) ([]int, []nfc.Decision) {
	m, err := loadModel(modelPath)
	if err != nil {
		log.Fatal(err)
	}
	emb, err := m.Quantize(fixp.MFLinear)
	if err != nil {
		log.Fatal(err)
	}
	if alpha >= 0 {
		emb.AlphaTest = fixp.AlphaToQ15(alpha)
	}

	// Front end on lead 0: filter, detect peaks.
	mv := make([]float64, len(rec.Signals[0]))
	for i, v := range rec.Signals[0] {
		mv[i] = float64(v-rec.ADCZero) / rec.Gain
	}
	filtered := sigdsp.FilterECG(mv, sigdsp.DefaultBaselineConfig(rec.Fs))
	peaks := peak.Detect(filtered, peak.Config{Fs: rec.Fs})
	fmt.Printf("peak detector: %d beats found\n", len(peaks))

	// Classification per detected beat (integer pipeline on raw ADC counts).
	var decided []nfc.Decision
	for _, p := range peaks {
		w := sigdsp.WindowInt(rec.Signals[0], p, beatset.Before, beatset.After)
		w = sigdsp.DownsampleInt(w, emb.Downsample)
		d := emb.Classify(w)
		decided = append(decided, d)
		if verbose {
			fmt.Printf("beat @%7d  ->  %s\n", p, d)
		}
	}
	return peaks, decided
}

// classifyRemote posts lead 0 to a running rpserve and converts the
// response back into the (peaks, decisions) shape the scorer consumes.
func classifyRemote(rec *wfdb.Record, base, wireFmt, ref string, verbose bool) ([]int, []nfc.Decision) {
	lead := rec.Signals[0]
	var (
		body []byte
		ct   string
		err  error
	)
	if wireFmt == "binary" {
		body = wire.AppendFrames(nil, lead, 2048)
		ct = wire.ContentTypeSamples
	} else {
		body, err = json.Marshal(serve.ClassifyRequest{Model: ref, Samples: lead})
		if err != nil {
			log.Fatal(err)
		}
		ct = wire.ContentTypeJSON
	}
	u := strings.TrimRight(base, "/") + "/v1/classify"
	if ref != "" && wireFmt == "binary" {
		u += "?model=" + url.QueryEscape(ref)
	}
	resp, err := http.Post(u, ct, bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("server: %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out serve.ClassifyResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("POST /v1/classify (%s, %d request bytes): model %s, %d beats\n",
		wireFmt, len(body), out.Model, out.Total)

	classes := map[string]nfc.Decision{
		nfc.DecideN.String(): nfc.DecideN, nfc.DecideL.String(): nfc.DecideL,
		nfc.DecideV.String(): nfc.DecideV, nfc.DecideU.String(): nfc.DecideU,
	}
	peaks := make([]int, 0, len(out.Beats))
	decided := make([]nfc.Decision, 0, len(out.Beats))
	for _, b := range out.Beats {
		d, ok := classes[b.Class]
		if !ok {
			log.Fatalf("server returned unknown class %q", b.Class)
		}
		peaks = append(peaks, b.Sample)
		decided = append(decided, d)
		if verbose {
			fmt.Printf("beat @%7d  ->  %s\n", b.Sample, b.Class)
		}
	}
	return peaks, decided
}

// score reports NDR/ARR against the record's annotations, when it has any.
func score(rec *wfdb.Record, peaks []int, decided []nfc.Decision) {
	if len(rec.Ann) == 0 {
		return
	}
	// Match detections to annotated beats.
	tol := int(0.05 * rec.Fs)
	var normalsTotal, normalsDiscarded, abTotal, abRecognized int
	for _, a := range rec.Ann {
		// Find the detection matching this annotation.
		match := -1
		for i, p := range peaks {
			if p >= a.Sample-tol && p <= a.Sample+tol {
				match = i
				break
			}
		}
		isNormal := a.Code == wfdb.CodeNormal
		if isNormal {
			normalsTotal++
		} else {
			abTotal++
		}
		if match < 0 {
			// Missed beats are never discarded; a missed abnormal is a miss.
			continue
		}
		if isNormal && decided[match] == nfc.DecideN {
			normalsDiscarded++
		}
		if !isNormal && decided[match].Abnormal() {
			abRecognized++
		}
	}
	if normalsTotal > 0 {
		fmt.Printf("NDR %.2f%% (%d/%d normals discarded)\n",
			100*float64(normalsDiscarded)/float64(normalsTotal), normalsDiscarded, normalsTotal)
	}
	if abTotal > 0 {
		fmt.Printf("ARR %.2f%% (%d/%d abnormals recognized)\n",
			100*float64(abRecognized)/float64(abTotal), abRecognized, abTotal)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
