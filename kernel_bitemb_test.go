package rpbeat

// The binary-head kernel contract, enforced: at the paper geometry (k=8
// coefficients over 50-sample windows at 90 Hz) the packed 1-bit classifier
// must beat the fuzzy integer kernel by at least 3x per beat, with zero
// allocations on both sides. BenchmarkKernel_IntegerClassifierPerBeat and
// BenchmarkKernel_BitembClassifierPerBeat time the same pair, and the repo
// benchmark's traced runs report it, windowing included, as
// core.classify_ns_per_beat and bitemb.classify_ns_per_beat; this test is
// the CI floor under them.

import (
	"testing"

	"rpbeat/internal/bitemb"
	"rpbeat/internal/core"
	"rpbeat/internal/fixp"
	"rpbeat/internal/nfc"
	"rpbeat/internal/rng"
	"rpbeat/internal/rp"
	"rpbeat/internal/testutil"
)

// Fabricated models: classification cost is data-independent (branch-free
// kernels), so random parameters measure the same kernel as trained ones
// while keeping this test training-free.

func speedFuzzyEmbedded(r *rng.Rand, k, d int) (*core.Embedded, error) {
	mf := nfc.NewParams(k)
	for i := range mf.C {
		mf.C[i] = float64(r.Intn(4000) - 2000)
		mf.Sigma[i] = 200 + float64(r.Intn(800))
	}
	m := &core.Model{
		K: k, D: d, Downsample: 4,
		P: rp.NewRandom(r, k, d), MF: mf, AlphaTrain: 0.1, MinARR: 0.97,
	}
	return m.Quantize(fixp.MFLinear)
}

func speedBitembEmbedded(r *rng.Rand, k, d int) (*core.Embedded, error) {
	bp := &bitemb.Params{K: k, Thresholds: make([]int32, k)}
	for j := range bp.Thresholds {
		bp.Thresholds[j] = int32(r.Intn(4000) - 2000)
	}
	for l := range bp.Protos {
		bp.Protos[l] = make([]uint64, bitemb.Words(k))
		for j := 0; j < k; j++ {
			if r.Intn(2) == 1 {
				bp.Protos[l][j/64] |= 1 << uint(j&63)
			}
		}
		bp.Radii[l] = uint16(k)
	}
	m := &core.Model{
		Kind: core.KindBitemb, K: k, D: d, Downsample: 4,
		P: rp.NewVerySparse(r, k, d), Bit: bp, AlphaTrain: 0.1, MinARR: 0.97,
	}
	return m.Quantize(fixp.MFLinear)
}

func TestBitembKernelSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the kernel timing ratio; CI runs this un-instrumented")
	}
	r := rng.New(7)
	const k, d = 8, 50
	fuzzy, err := speedFuzzyEmbedded(r, k, d)
	if err != nil {
		t.Fatal(err)
	}
	bit, err := speedBitembEmbedded(r, k, d)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]int32, d)
	for i := range w {
		w[i] = int32(r.Intn(2000) - 1000)
	}
	// Per-beat kernels, each over its own warm scratch.
	perBeat := func(emb *core.Embedded) func(n int) {
		s := core.NewScratch(emb)
		return func(n int) {
			for i := 0; i < n; i++ {
				_ = emb.ClassifyInto(w, s)
			}
		}
	}
	fuzzyBeat, bitBeat := perBeat(fuzzy), perBeat(bit)
	testutil.AssertZeroAlloc(t, "fuzzy kernel per beat", func() { fuzzyBeat(1) })
	testutil.AssertZeroAlloc(t, "bitemb kernel per beat", func() { bitBeat(1) })

	// Interleaved pairs: the floor is about relative kernel cost, not about
	// the host's speed drifting between two halves of the measurement.
	ratio, fuzzyNs, bitNs := testutil.MedianRatio(21, fuzzyBeat, bitBeat)
	t.Logf("fuzzy %.1f ns/beat, bitemb %.1f ns/beat: median pair ratio %.2fx", fuzzyNs, bitNs, ratio)
	if ratio < 3 {
		t.Fatalf("bitemb kernel %.1f ns/beat is only %.2fx the fuzzy kernel's %.1f ns/beat (median pair), want >= 3x",
			bitNs, ratio, fuzzyNs)
	}
}
