package sigdsp

import (
	"testing"

	"rpbeat/internal/rng"
	"rpbeat/internal/testutil"
)

// TestFilterECGIntoMatchesFilterECG holds the scratch-reusing front end to
// bit-identity with the allocating composition, across repeated reuse of one
// scratch — including a shorter signal after a longer one, so stale buffer
// tails would surface, and a changed sampling frequency, which must rebuild
// the scratch's filter.
func TestFilterECGIntoMatchesFilterECG(t *testing.T) {
	r := rng.New(11)
	var s FilterScratch
	var dst []float64
	for i, n := range []int{2000, 977, 3600, 16, 1, 0, 1500, 3000} {
		cfg := DefaultBaselineConfig(360)
		if i >= 6 {
			cfg = DefaultBaselineConfig(128)
		}
		x := randomSignal(r, n)
		want := RemoveBaseline(SuppressNoise(x, cfg), cfg)
		dst = FilterECGInto(dst, x, cfg, &s)
		if len(dst) != len(want) {
			t.Fatalf("n=%d: got %d samples, want %d", n, len(dst), len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: sample %d = %v, want %v", n, i, dst[i], want[i])
			}
		}
		// The exported wrapper must agree too (it delegates).
		got := FilterECG(x, cfg)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: FilterECG sample %d = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestAtrousDWTIntoReuse checks that recomputing into a used DWT (larger and
// smaller signals, different level counts) matches a fresh transform
// bitwise.
func TestAtrousDWTIntoReuse(t *testing.T) {
	r := rng.New(12)
	var d DWT
	for _, tc := range []struct{ n, levels int }{
		{1500, 4}, {700, 4}, {1500, 3}, {64, 5}, {16, 1},
	} {
		x := randomSignal(r, tc.n)
		AtrousDWTInto(&d, x, tc.levels)
		want := AtrousDWT(x, tc.levels)
		if len(d.W) != tc.levels || len(want.W) != tc.levels {
			t.Fatalf("n=%d levels=%d: got %d levels, want %d", tc.n, tc.levels, len(d.W), tc.levels)
		}
		for j := range want.W {
			for i := range want.W[j] {
				if d.W[j][i] != want.W[j][i] {
					t.Fatalf("n=%d: W[%d][%d] = %v, want %v", tc.n, j, i, d.W[j][i], want.W[j][i])
				}
			}
		}
	}
}

// TestFilterECGIntoSteadyStateAllocs: after the first call sized the
// scratch, re-filtering same-length signals must not allocate — the property
// the /v1/classify request loop relies on.
func TestFilterECGIntoSteadyStateAllocs(t *testing.T) {
	r := rng.New(13)
	cfg := DefaultBaselineConfig(360)
	x := randomSignal(r, 3600)
	var s FilterScratch
	dst := FilterECGInto(nil, x, cfg, &s) // size every buffer
	testutil.AssertZeroAllocN(t, "warm FilterECGInto", 20, func() {
		dst = FilterECGInto(dst, x, cfg, &s)
	})
}
