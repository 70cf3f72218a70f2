package rpbeat

// The front-end parity contract, enforced both ways: a stream fed the
// serving chunk (180 samples, 0.5 s at 360 Hz) and the /v1/classify path,
// a pooled pipeline taking the whole record (Pipeline.Classify), must each
// cost at most 1.3x per sample what the other costs. Both run the same
// pipeline; the classify path adds a re-arm and a Flush per record and
// pushes the record in strides of 2^14 samples. BenchmarkKernel_PipelinePushChunk180
// and BenchmarkKernel_BatchClassify30s time the same pair; this test is
// the CI floor under them.

import (
	"context"
	"testing"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/rng"
	"rpbeat/internal/testutil"
)

func TestFrontendBatchParity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the stream/batch timing ratio; CI runs this un-instrumented")
	}
	// Classification cost is data-independent, so a fabricated model at the
	// paper geometry measures the same path as a trained one.
	emb, err := speedFuzzyEmbedded(rng.New(7), 8, 50)
	if err != nil {
		t.Fatal(err)
	}
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "parity", Seconds: 60, Seed: 7, PVCRate: 0.1}).Leads[0]
	const chunk = 180

	pipe, err := pipeline.New(emb, pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	stream := func(n int) {
		for i := 0; i < n; i++ {
			if off+chunk > len(lead) {
				off = 0
			}
			pipe.PushChunk(lead[off:off+chunk], nil)
			off += chunk
		}
	}
	pooled, err := pipeline.New(emb, pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var batchErr error
	batch := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := pooled.Classify(context.Background(), emb, lead); err != nil {
				batchErr = err
			}
		}
	}
	stream(len(lead) / chunk) // one pass warms every ring and window buffer
	batch(1)
	testutil.AssertZeroAlloc(t, "PushChunk of 180 samples", func() { stream(1) })

	ratio, streamNs, batchNs := testutil.MedianRatio(21, stream, batch)
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	// MedianRatio compares calls; scale to samples (chunk vs record).
	perSample := ratio * float64(len(lead)) / chunk
	t.Logf("stream %.1f ns/sample, batch %.1f ns/sample: median pair ratio %.2fx",
		streamNs/chunk, batchNs/float64(len(lead)), perSample)
	if perSample > 1.3 {
		t.Fatalf("PushChunk costs %.2fx Classify per sample (median pair), want <= 1.3x", perSample)
	}
	if 1/perSample > 1.3 {
		t.Fatalf("Classify costs %.2fx PushChunk per sample (median pair), want <= 1.3x", 1/perSample)
	}
}
