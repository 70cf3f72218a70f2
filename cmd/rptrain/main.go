// Command rptrain runs the paper's two-step training methodology (GA over
// Achlioptas projection matrices x SCG-trained neuro-fuzzy classifiers) on
// the synthetic database and saves the resulting model.
//
// Usage:
//
//	rptrain -o model.json                       # paper settings, full data
//	rptrain -o model.bin -format binary -k 8 -downsample 4
//	rptrain -o m.json -scale 0.1 -pop 8 -gen 10 # quick run on reduced data
//	rptrain -o bin.bin -format binary -head bitemb   # packed 1-bit head
//
// -head selects the classifier head: "fuzzy" (the paper's neuro-fuzzy
// decision rule) or "bitemb" (binary adaptive embeddings: thresholded
// projections packed to 1 bit/coefficient, classified by Hamming
// distance to per-class prototypes — smaller models, popcount-speed
// classification).
//
// Alongside the model, rptrain writes a manifest sidecar
// (<out-minus-ext>.manifest.json) carrying the model's SHA-256 digest and
// the training configuration — the provenance record internal/catalog
// preserves when the file is dropped into an rpserve -models-dir (where it
// registers as <name>@v1) or uploaded via POST /v1/models.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rpbeat/internal/beatset"
	"rpbeat/internal/catalog"
	"rpbeat/internal/core"
)

func main() {
	var (
		out        = flag.String("o", "model.json", "output model path")
		format     = flag.String("format", "json", "model format: json or binary")
		head       = flag.String("head", "fuzzy", "classifier head: fuzzy (neuro-fuzzy, the paper's) or bitemb (packed 1-bit embeddings + popcount)")
		k          = flag.Int("k", 8, "number of projected coefficients")
		downsample = flag.Int("downsample", 4, "input downsampling factor (1 = 360 Hz, 4 = 90 Hz)")
		pop        = flag.Int("pop", 20, "GA population (paper: 20)")
		gen        = flag.Int("gen", 30, "GA generations (paper: 30)")
		minARR     = flag.Float64("minarr", 0.97, "minimum ARR constraint for alpha_train")
		scale      = flag.Float64("scale", 1, "dataset scale (1 = full Table I composition)")
		seed       = flag.Uint64("seed", 42, "training seed")
		name       = flag.String("name", "", "model name for the manifest (default: output filename without extension)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("rptrain: ")

	start := time.Now()
	fmt.Printf("building dataset (scale %.2f)...\n", *scale)
	ds, err := beatset.Build(beatset.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}
	t1 := ds.CountByClass(ds.Train1)
	t2 := ds.CountByClass(ds.Train2)
	fmt.Printf("dataset: %d beats; train1 %v, train2 %v\n", len(ds.Beats), t1, t2)

	fmt.Printf("training: head=%s k=%d downsample=%d GA %dx%d...\n", *head, *k, *downsample, *pop, *gen)
	cfg := core.Config{
		Coeffs:      *k,
		Downsample:  *downsample,
		PopSize:     *pop,
		Generations: *gen,
		MinARR:      *minARR,
		Seed:        *seed,
	}
	switch *head {
	case "fuzzy":
		cfg.Kind = core.KindFuzzy
	case "bitemb":
		cfg.Kind = core.KindBitemb
	default:
		log.Fatalf("unknown head %q (fuzzy|bitemb)", *head)
	}
	m, stats, err := core.Train(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GA: %d fitness evaluations, best NDR on train2 = %.2f%% (ARR >= %.0f%%)\n",
		stats.FitnessEvals, 100*stats.BestFitness, 100**minARR)
	fmt.Printf("alpha_train = %.6f; train2 operating point NDR %.2f%% ARR %.2f%%\n",
		stats.AlphaTrain, 100*stats.Train2Point.NDR, 100*stats.Train2Point.ARR)

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	switch *format {
	case "json":
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(m); err != nil {
			log.Fatal(err)
		}
	case "binary":
		if err := m.WriteBinary(f); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown format %q (json|binary)", *format)
	}

	// Manifest sidecar: digest + provenance, verified by the catalog on load.
	manName := *name
	if manName == "" {
		base := filepath.Base(*out)
		manName = strings.TrimSuffix(base, filepath.Ext(base))
	}
	if err := catalog.ValidateName(manName); err != nil {
		log.Fatalf("manifest name: %v (pass -name)", err)
	}
	man, err := catalog.ManifestFor(manName, 1, m, &catalog.TrainingInfo{
		Tool: "rptrain", Seed: *seed, Scale: *scale,
		PopSize: *pop, Generations: *gen,
		MinARR: *minARR, AlphaTrain: stats.AlphaTrain,
	}, time.Now())
	if err != nil {
		log.Fatal(err)
	}
	if err := catalog.WriteManifest(*out, man); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model written to %s (digest %.12s…, manifest alongside; %.1fs total)\n",
		*out, man.Digest, time.Since(start).Seconds())
}
