package sigdsp

import (
	"math"
	"slices"
	"testing"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/rng"
)

// noisyECGLike builds a deterministic test signal with ECG-like structure:
// sharp spikes on a wandering baseline plus pseudo-noise.
func noisyECGLike(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		t := float64(i)
		v := 0.3 * math.Sin(2*math.Pi*t/700)     // baseline wander
		v += 0.05 * math.Sin(2*math.Pi*t/6.3)    // "mains"
		v += 0.02 * math.Sin(2*math.Pi*t*0.7713) // pseudo-noise
		if i%360 == 180 {
			v += 1.2 // spike train standing in for QRS complexes
		}
		if i%360 == 181 {
			v -= 0.4
		}
		x[i] = v
	}
	return x
}

// chunkSizes is the chunking sweep of the identity tests: one sample at a
// time, both sides of the Block boundary, the serving chunk (180), odd
// multi-block sizes, and 0 for the whole record in one call.
var chunkSizes = []int{1, 2, 3, 63, 64, 65, 180, 719, 1024, 0}

// chunks splits x into consecutive chunks of size (the whole of x for 0).
func chunks[T any](x []T, size int) [][]T {
	if size == 0 {
		size = len(x)
	}
	var out [][]T
	for off := 0; off < len(x); off += size {
		out = append(out, x[off:min(off+size, len(x))])
	}
	return out
}

// TestStreamECGFilterMatchesFilterECG holds the block filter to the
// Open/Close composition FilterECG is defined as (FilterECG itself runs
// the block filter): PushChunk emits all but the last Delay() samples, and
// Flush those, bit for bit to the last sample, at every chunking.
func TestStreamECGFilterMatchesFilterECG(t *testing.T) {
	x := noisyECGLike(4000)
	cfg := DefaultBaselineConfig(360)
	ref := RemoveBaseline(SuppressNoise(x, cfg), cfg)

	for _, size := range chunkSizes {
		f := NewStreamECGFilter(cfg)
		if f.Delay() <= 0 {
			t.Fatal("no group delay reported")
		}
		out := make([]float64, len(x))
		k := 0
		for _, c := range chunks(x, size) {
			k += f.PushChunk(out[k:], c)
		}
		if k != len(x)-f.Delay() {
			t.Fatalf("chunk %d: emitted %d samples, want n-delay = %d", size, k, len(x)-f.Delay())
		}
		if m := f.Flush(out[k:]); k+m != len(x) {
			t.Fatalf("chunk %d: flushed %d samples after %d, want %d in all", size, m, k, len(x))
		}
		// The stream is bit-identical from sample 0 (the trailing windows
		// over the first samples cover exactly the reference's shrunken
		// windows) to the last (Flush clips them at the last input).
		for i, y := range out {
			if math.Float64bits(y) != math.Float64bits(ref[i]) {
				t.Fatalf("chunk %d: sample %d: stream %g != reference %g", size, i, y, ref[i])
			}
		}
	}
}

func TestStreamDWTMatchesAtrousDWT(t *testing.T) {
	x := noisyECGLike(3000)
	for _, levels := range []int{1, 3, 4} {
		batch := AtrousDWT(x, levels)
		for _, size := range chunkSizes {
			d := NewStreamDWT(levels)
			w := make([][]float64, levels)
			emitted := 0
			for _, c := range chunks(x, size) {
				for j := range w {
					w[j] = make([]float64, len(c))
				}
				k := d.PushChunk(w, c)
				for i := 0; i < k; i++ {
					for j := 0; j < levels; j++ {
						if w[j][i] != batch.W[j][emitted] {
							t.Fatalf("levels=%d chunk %d: W[%d][%d]: stream %g != batch %g",
								levels, size, j, emitted, w[j][i], batch.W[j][emitted])
						}
					}
					emitted++
				}
			}
			if emitted != len(x)-d.Delay() {
				t.Fatalf("levels=%d chunk %d: emitted %d, want n-delay = %d", levels, size, emitted, len(x)-d.Delay())
			}
		}
	}
}

// flushLengths crosses every stage's delay: the 3-sample noise stages (1
// each, 4 in a chain), the baseline wedges (36, 90 and 54, so 36, 126 and
// 180 cumulative), the filter (184), the transform at 1-5 levels (2, 7,
// 17, 37 and 77) and the block (64), each from below and above, and records
// of a few thousand samples. A long record comes first, so the operators'
// first reuse is a shorter record after a longer one.
var flushLengths = []int{
	4001, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 17, 18, 36, 37, 54, 55, 63, 64, 65,
	72, 73, 76, 77, 78, 109, 126, 127, 179, 180, 181, 182, 183, 184, 185, 186,
	255, 256, 2999,
}

// TestFrontEndFlushMatchesReferences holds PushChunk plus Flush to the
// references, bit for bit to the last sample: the filter to the Open/Close
// composition over the input with −0 read as +0 and the transform at 1-5
// levels to AtrousDWT, at every flushLengths entry and every chunking. One
// filter and one transform per depth take every record, each Reset before
// it.
func TestFrontEndFlushMatchesReferences(t *testing.T) {
	cfg := DefaultBaselineConfig(360)
	r := rng.New(21)
	filter := NewStreamECGFilter(cfg)
	var dwts [5]*StreamDWT
	for l := range dwts {
		dwts[l] = NewStreamDWT(l + 1)
	}
	for _, n := range flushLengths {
		x := randomSignal(r, n)
		if n%2 == 1 {
			x = tieSignal(r, n)
		}
		ref := RemoveBaseline(SuppressNoise(plusZero(x), cfg), cfg)
		var refW [len(dwts)]DWT
		for l := range refW {
			refW[l] = AtrousDWT(x, l+1)
		}
		for _, size := range chunkSizes {
			filter.Reset()
			got := make([]float64, n)
			k := 0
			for _, c := range chunks(x, size) {
				k += filter.PushChunk(got[k:], c)
			}
			if m := filter.Flush(got[k:]); k+m != n {
				t.Fatalf("filter n=%d chunk %d: %d samples after Flush, want %d", n, size, k+m, n)
			}
			for i := range ref {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("filter n=%d chunk %d: sample %d = %v, reference %v", n, size, i, got[i], ref[i])
				}
			}
			for l, d := range dwts {
				levels, want := l+1, refW[l]
				d.Reset()
				w, view := make([][]float64, levels), make([][]float64, levels)
				for j := range w {
					w[j] = make([]float64, n)
				}
				k := 0
				for _, c := range chunks(x, size) {
					for j := range view {
						view[j] = w[j][k:]
					}
					k += d.PushChunk(view, c)
				}
				for j := range view {
					view[j] = w[j][k:]
				}
				if m := d.Flush(view); k+m != n {
					t.Fatalf("DWT levels=%d n=%d chunk %d: %d indices after Flush, want %d", levels, n, size, k+m, n)
				}
				for j := range want.W {
					for i, v := range want.W[j] {
						if math.Float64bits(w[j][i]) != math.Float64bits(v) {
							t.Fatalf("DWT levels=%d n=%d chunk %d: W[%d][%d] = %v, reference %v",
								levels, n, size, j, i, w[j][i], v)
						}
					}
				}
			}
		}
	}
}

// filterChunks runs x through f, Reset first, in chunks of size and
// flushed, and returns its len(x) filtered samples.
func filterChunks(t *testing.T, f *StreamECGFilter, x []float64, size int) []float64 {
	t.Helper()
	f.Reset()
	y := make([]float64, len(x))
	k := 0
	for _, c := range chunks(x, size) {
		k += f.PushChunk(y[k:], c)
	}
	if k += f.Flush(y[k:]); k != len(x) {
		t.Fatalf("chunk %d: %d samples after Flush, want %d", size, k, len(x))
	}
	return y
}

// TestFilterDomainBoundaries holds the float entry's contract at the edges
// of its domain, finite with −0 read as +0, row by row in the shape of a
// range-proof boundary table: at every chunking, PushChunk plus Flush
// equals bit for bit both the Open/Close composition over the input with
// −0 read as +0 and PushChunk plus Flush of that input. −0 must not reach
// the noise stages' integer selects, which key it one below +0 where the
// batch deque takes the newest of the two; and the denormal rows make a
// noise average that rounds to −0 from input without any (half of
// −2⁻¹⁰⁷⁴), which the baseline wedges' own ±0 rule must keep.
func TestFilterDomainBoundaries(t *testing.T) {
	cfg := DefaultBaselineConfig(ecgsyn.Fs)
	f := NewStreamECGFilter(cfg)
	negZero, tiny := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	r := rng.New(23)
	// pick draws n samples from levels, each run of one level 1 to maxRun
	// samples long.
	pick := func(n, maxRun int, levels ...float64) []float64 {
		x := make([]float64, 0, n)
		for len(x) < n {
			v := levels[r.Intn(len(levels))]
			for range min(1+r.Intn(maxRun), n-len(x)) {
				x = append(x, v)
			}
		}
		return x
	}
	// averages strings together runs whose noise average is −0 (2⁻¹⁰⁷⁴
	// alternating with −2⁻¹⁰⁷³: the open-close keeps the lows, the
	// close-open the highs, and half their sum rounds to −0) or +0 (2⁻¹⁰⁷³
	// with −2⁻¹⁰⁷⁴, or zeros), so the baseline's windows meet zeros of both
	// signs at their extremum.
	averages := func(n int) []float64 {
		pairs := [][2]float64{{tiny, -2 * tiny}, {2 * tiny, -tiny}, {0, 0}}
		x := make([]float64, 0, n)
		for len(x) < n {
			p := pairs[r.Intn(len(pairs))]
			for i := range min(20+r.Intn(130), n-len(x)) {
				x = append(x, p[i%2])
			}
		}
		return x
	}
	lo, hi := ecgsyn.ToMillivolts(0), ecgsyn.ToMillivolts(ecgsyn.ADCMax)
	for _, row := range []struct {
		name string
		x    []float64
	}{
		{"−0 alone", []float64{negZero}},
		{"−0 for a record", pick(700, 1, negZero)},
		{"runs of ±0", pick(1500, 40, negZero, 0)},
		{"±0 tied with ±1", pick(1500, 3, negZero, 0, -1, 1)},
		{"±2⁻¹⁰⁷⁴ and ±2⁻¹⁰⁷³", pick(1500, 2, -tiny, tiny, -2*tiny, 2*tiny)},
		{"averages of −0 and +0", averages(3000)},
		{"±MaxFloat64", pick(1500, 50, -math.MaxFloat64, math.MaxFloat64, negZero, 0)},
		{"11-bit rails", pick(1500, 30, lo, hi)},
	} {
		in := plusZero(row.x)
		ref := RemoveBaseline(SuppressNoise(in, cfg), cfg)
		for _, size := range chunkSizes {
			got, plus := filterChunks(t, f, row.x, size), filterChunks(t, f, in, size)
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(ref[i]) || math.Float64bits(v) != math.Float64bits(plus[i]) {
					t.Fatalf("%s n=%d chunk %d: sample %d = %v, composition %v, PushChunk with −0 read as +0 %v",
						row.name, len(row.x), size, i, v, ref[i], plus[i])
				}
			}
		}
	}
}

// countLeads are n-sample leads of ADC counts: 11-bit ECG, the two rails
// (0 and ADCMax) drawn at random, a flat lead, and full-range int32 counts,
// half of them the extremes and values straddling MinInt32+1024, below
// which an int32 difference from ecgsyn.Baseline wraps.
func countLeads(n int) map[string][]int32 {
	ecg := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "counts", Seconds: float64(n)/ecgsyn.Fs + 1, Seed: 3, PVCRate: 0.2}).Leads[0][:n]
	rails, flat, full := make([]int32, n), make([]int32, n), make([]int32, n)
	edges := []int32{math.MinInt32, math.MinInt32 + 1, math.MinInt32 + 1023, math.MinInt32 + 1024,
		math.MinInt32 + 1025, -1, 0, ecgsyn.Baseline, ecgsyn.ADCMax, math.MaxInt32 - 1, math.MaxInt32}
	r := rng.New(22)
	for i := range n {
		rails[i] = ecgsyn.ADCMax * int32(r.Intn(2))
		flat[i] = ecgsyn.Baseline
		full[i] = int32(r.Uint64())
		if r.Intn(2) == 0 {
			full[i] = edges[r.Intn(len(edges))]
		}
	}
	return map[string][]int32{"ECG": ecg, "rails": rails, "flat": flat, "full-range": full}
}

// TestPushCountsMatchesPushChunk holds the counts entry to the float one
// over the same counts in millivolts, bit for bit through Flush, at every
// chunking and flushLengths length. One filter takes every record through
// both entries, Reset before each, so Reset and Flush must keep the
// entries' noise chains apart.
func TestPushCountsMatchesPushChunk(t *testing.T) {
	f := NewStreamECGFilter(DefaultBaselineConfig(ecgsyn.Fs))
	for name, lead := range countLeads(slices.Max(flushLengths)) {
		for _, n := range flushLengths {
			counts, mv := lead[:n], make([]float64, n)
			for i, c := range counts {
				mv[i] = ecgsyn.ToMillivolts(c)
			}
			for _, size := range chunkSizes {
				want, got := make([]float64, n), make([]float64, n)
				f.Reset()
				k := 0
				for _, c := range chunks(mv, size) {
					k += f.PushChunk(want[k:], c)
				}
				f.Flush(want[k:])
				f.Reset()
				k = 0
				for _, c := range chunks(counts, size) {
					k += f.PushCounts(got[k:], c)
				}
				if m := f.Flush(got[k:]); k+m != n {
					t.Fatalf("%s n=%d chunk %d: %d samples after Flush, want %d", name, n, size, k+m, n)
				}
				for i, v := range want {
					if math.Float64bits(got[i]) != math.Float64bits(v) {
						t.Fatalf("%s n=%d chunk %d: sample %d: PushCounts %v, PushChunk %v", name, n, size, i, got[i], v)
					}
				}
			}
		}
	}
}

// Deeper levels must not perturb shallower ones: a 3-level stream must match
// the 4-level batch on its shared scales (the detector relies on this).
func TestStreamDWTPrefixOfDeeperBatch(t *testing.T) {
	x := noisyECGLike(2500)
	batch := AtrousDWT(x, 4)
	d := NewStreamDWT(3)
	emitted := 0
	for _, v := range x {
		w, ok := d.Push(v)
		if !ok {
			continue
		}
		for j := 0; j < 3; j++ {
			if w[j] != batch.W[j][emitted] {
				t.Fatalf("W[%d][%d]: stream %g != 4-level batch %g", j, emitted, w[j], batch.W[j][emitted])
			}
		}
		emitted++
	}
	if emitted == 0 {
		t.Fatal("nothing emitted")
	}
}

// BenchmarkStreamECGFilterPush is the one-sample wrapper, the call
// benchmark/'s stage replay times.
func BenchmarkStreamECGFilterPush(b *testing.B) {
	x := noisyECGLike(4096)
	f := NewStreamECGFilter(DefaultBaselineConfig(360))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Push(x[i%len(x)])
	}
}

// servedRecord is what the served front end filters: 60 s of an ecgsyn
// lead, 10% PVCs. Its noise does not repeat the way noisyECGLike's sum of
// sines does, so a stage that branches on the data pays here for the
// predictor's misses as it does in service.
func servedRecord() *ecgsyn.Record {
	return ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "bench", Seconds: 60, Seed: 9, PVCRate: 0.1})
}

// servedLead is servedRecord's lead in millivolts.
func servedLead() []float64 { return servedRecord().LeadMillivolts(0) }

// chunk180 runs op over consecutive 180-sample chunks of x (the serving
// chunk: 0.5 s at 360 Hz) and reports the cost per sample.
func chunk180[T any](b *testing.B, x []T, op func(chunk []T)) {
	const size = 180
	b.ReportAllocs()
	off := 0
	for b.Loop() {
		if off+size > len(x) {
			off = 0
		}
		op(x[off : off+size])
		off += size
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/sample")
}

func BenchmarkKernel_StreamECGFilterChunk180(b *testing.B) {
	x := servedLead()
	f := NewStreamECGFilter(DefaultBaselineConfig(360))
	var dst [180]float64
	chunk180(b, x, func(c []float64) { f.PushChunk(dst[:], c) })
}

// BenchmarkKernel_StreamECGFilterCountsChunk180 is the served entry: the
// same lead as ADC counts through PushCounts.
func BenchmarkKernel_StreamECGFilterCountsChunk180(b *testing.B) {
	x := servedRecord().Leads[0]
	f := NewStreamECGFilter(DefaultBaselineConfig(360))
	var dst [180]float64
	chunk180(b, x, func(c []int32) { f.PushCounts(dst[:], c) })
}

func BenchmarkKernel_StreamDWTChunk180(b *testing.B) {
	x := servedLead()
	d := NewStreamDWT(3)
	var w [3][180]float64
	dst := [][]float64{w[0][:], w[1][:], w[2][:]}
	chunk180(b, x, func(c []float64) { d.PushChunk(dst, c) })
}
