// Command rpserve serves the embedded heartbeat classifier over HTTP: batch
// classification of whole records and online NDJSON streaming, backed by a
// versioned model catalog (internal/catalog) and a worker-pool engine that
// multiplexes any number of concurrent patient streams (internal/pipeline).
//
// Usage:
//
//	rpserve -models-dir ./models -addr :8080   # persistent, admin-managed
//	rpserve -model pc=float.json -model wbsn=embedded.bin -default wbsn
//	rpserve -demo          # no trained model at hand: train a small one
//
// With -models-dir the catalog is durable: models already in the directory
// (e.g. cmd/rptrain output, with their manifest sidecars) are loaded at
// boot, every POST /v1/models upload is persisted, and SIGHUP hot-reloads
// the directory without a restart. -model name=path imports a file into the
// catalog at boot (re-imports of identical bytes are recognized and
// skipped).
//
// Endpoints:
//
//	GET    /healthz             liveness
//	GET    /v1/models           catalog inventory (versions, manifests)
//	POST   /v1/models?name=n    upload a model; next version auto-assigned
//	GET    /v1/models/{ref}     manifest detail ("name" or "name@vN")
//	DELETE /v1/models/{ref}     retire one explicit version
//	PUT    /v1/default          {"model":"ref"} repoint the default
//	POST   /v1/classify         {"model":"...","samples":[...]} -> beats
//	POST   /v1/stream?model=m   NDJSON chunks in, NDJSON beats out (chunked)
//
// Shutdown is graceful: SIGINT/SIGTERM stop the listener, in-flight
// requests (including open streams) get -drain to finish, then the engine
// worker pool is closed.
//
// Overload control (all off by default): -max-streams caps concurrently
// open streams (beyond it new streams shed with the typed server_overloaded
// error while batch stays admitted), -max-batch caps in-flight classify
// requests, and -rate/-burst meter request starts per tenant (X-Tenant
// header, client IP fallback; violations get typed rate_limited). Every
// refusal carries Retry-After — clients see contract errors, never resets.
// cmd/rpload drives a synthetic patient fleet against these defenses and
// measures where the latency knee sits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rpbeat/internal/apierr"
	"rpbeat/internal/beatset"
	"rpbeat/internal/catalog"
	"rpbeat/internal/core"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/serve"
)

func loadModel(path string) (*core.Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return core.Decode(data)
}

// trainDemo trains a reduced-scale model so the server can start without any
// artifacts on disk (a few seconds of CPU; for real use, train with
// cmd/rptrain and pass -model or drop it in -models-dir).
func trainDemo(seed uint64) (*core.Model, error) {
	ds, err := beatset.Build(beatset.Config{Seed: seed, Scale: 0.03})
	if err != nil {
		return nil, err
	}
	m, _, err := core.Train(ds, core.Config{
		Coeffs: 8, Downsample: 4, PopSize: 6, Generations: 3,
		SCGIters: 60, MinARR: 0.9, Seed: seed,
	})
	return m, err
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "engine worker goroutines (0 = NumCPU)")
		modelsDir  = flag.String("models-dir", "", "persistent catalog directory (loaded at boot, uploads land here, SIGHUP reloads)")
		deflt      = flag.String("default", "", "default model reference (name or name@vN)")
		demo       = flag.Bool("demo", false, "train a small demo model at startup")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		maxStreams = flag.Int("max-streams", 0, "concurrent /v1/stream cap; beyond it new streams shed with typed server_overloaded (0 = unlimited)")
		maxBatch   = flag.Int("max-batch", 0, "in-flight /v1/classify cap, the shed ladder's second rung (0 = unlimited)")
		rate       = flag.Float64("rate", 0, "per-tenant request rate limit, req/s (X-Tenant header or client IP; 0 = unlimited)")
		burst      = flag.Float64("burst", 0, "per-tenant token-bucket depth (0 = max(1, -rate))")
		instance   = flag.String("instance", "", "replica name sent as X-Rpbeat-Instance on every response (how a gateway tier attributes shedding; empty = none)")
	)
	// Flag order decides import order, so keep a slice, not a map.
	type namedModel struct{ name, path string }
	var models []namedModel
	flag.Func("model", "import a model into the catalog as name=path (repeatable; json or binary)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		models = append(models, namedModel{name, path})
		return nil
	})
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("rpserve: ")

	var (
		cat *catalog.Catalog
		err error
	)
	if *modelsDir != "" {
		if cat, err = catalog.Open(*modelsDir); err != nil {
			log.Fatalf("models dir: %v", err)
		}
		if n := cat.Snapshot().Len(); n > 0 {
			log.Printf("loaded %d model version(s) from %s", n, *modelsDir)
		}
	} else {
		cat = catalog.New()
	}

	put := func(name string, m *core.Model, what string) {
		man, err := cat.Put(name, m, nil)
		if apierr.IsCode(err, apierr.CodeModelExists) {
			log.Printf("model %q: %s already in catalog (%v)", name, what, err)
			return
		}
		if err != nil {
			log.Fatalf("register %s: %v", what, err)
		}
		e, err := cat.Snapshot().Resolve(man.Ref())
		if err != nil {
			log.Fatalf("resolve %s: %v", man.Ref(), err)
		}
		log.Printf("model %s: k=%d d=%d downsample=%d, %d bytes on-node, digest %.12s…",
			man.Ref(), man.K, man.D, man.Downsample, e.Emb.MemoryBytes(), man.Digest)
	}
	for _, nm := range models {
		m, err := loadModel(nm.path)
		if err != nil {
			log.Fatalf("load %s: %v", nm.path, err)
		}
		put(nm.name, m, nm.path)
	}
	if *demo {
		log.Printf("training demo model (reduced scale)...")
		start := time.Now()
		m, err := trainDemo(1)
		if err != nil {
			log.Fatalf("demo training: %v", err)
		}
		log.Printf("demo model trained in %v", time.Since(start).Round(time.Millisecond))
		put("demo", m, "demo model")
	}
	if *deflt != "" {
		if err := cat.SetDefault(*deflt); err != nil {
			log.Fatalf("default model: %v", err)
		}
	}
	if cat.Snapshot().Len() == 0 && *modelsDir == "" {
		log.Fatal("no models: pass -model name=path, -models-dir (uploads welcome) or -demo")
	}
	if def := cat.Snapshot().Default(); def != "" {
		log.Printf("default model: %s", def)
	} else {
		log.Printf("no default model yet: pick one with PUT /v1/default or upload the first")
	}

	eng := pipeline.NewEngine(cat, pipeline.EngineConfig{Workers: *workers})

	// SIGHUP hot-reloads a directory-backed catalog (e.g. after rsyncing new
	// model files in) without dropping a single stream.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if cat.Dir() == "" {
				log.Printf("SIGHUP: no -models-dir, nothing to reload")
				continue
			}
			if err := cat.Reload(); err != nil {
				log.Printf("SIGHUP reload failed (catalog unchanged): %v", err)
			} else {
				log.Printf("SIGHUP: reloaded %d model version(s) from %s", cat.Snapshot().Len(), cat.Dir())
			}
		}
	}()

	srv := &http.Server{
		Addr: *addr,
		Handler: serve.NewHandler(eng, serve.HandlerConfig{
			MaxStreams:    *maxStreams,
			MaxBatch:      *maxBatch,
			RatePerTenant: *rate,
			RateBurst:     *burst,
			Instance:      *instance,
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if *maxStreams > 0 || *maxBatch > 0 || *rate > 0 {
		log.Printf("overload control: max-streams=%d max-batch=%d rate=%g/s burst=%g",
			*maxStreams, *maxBatch, *rate, *burst)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving on %s", *addr)

	select {
	case err := <-errc:
		// The listener failed outright (port in use, ...): nothing to drain.
		eng.Close()
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal behavior: a second ^C kills hard
		log.Printf("shutdown signal; draining in-flight requests (up to %v)", *drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			log.Printf("drain incomplete: %v; closing remaining connections", err)
			srv.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("listener: %v", err)
		}
		// All stream handlers have returned (and Closed their streams), so
		// the worker pool drains cleanly.
		eng.Close()
		log.Printf("bye")
	}
}
