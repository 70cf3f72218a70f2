package load

import (
	"net/http/httptest"
	"sync"
	"testing"

	"rpbeat/internal/beatset"
	"rpbeat/internal/catalog"
	"rpbeat/internal/core"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/serve"
)

var (
	modelOnce sync.Once
	modelVal  *core.Model
	modelErr  error
)

// testModel trains one reduced-scale model per test binary.
func testModel(t testing.TB) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		ds, err := beatset.Build(beatset.Config{Seed: 31, Scale: 0.03})
		if err != nil {
			modelErr = err
			return
		}
		modelVal, _, modelErr = core.Train(ds, core.Config{
			Coeffs: 8, Downsample: 4, PopSize: 4, Generations: 2,
			SCGIters: 50, MinARR: 0.9, Seed: 31,
		})
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return modelVal
}

// testServer boots the real serving stack — catalog, engine, HTTP handler —
// the way rpserve wires it, and hands back both halves so tests can drive
// HTTP load while inspecting the engine. Close order matters (handler
// before engine), mirroring rpserve's shutdown.
func testServer(t testing.TB, workers int, cfg serve.HandlerConfig) (*httptest.Server, *pipeline.Engine) {
	t.Helper()
	cat := catalog.New()
	if _, err := cat.Put("default", testModel(t), nil); err != nil {
		t.Fatal(err)
	}
	eng := pipeline.NewEngine(cat, pipeline.EngineConfig{Workers: workers})
	ts := httptest.NewServer(serve.NewHandler(eng, cfg))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return ts, eng
}
