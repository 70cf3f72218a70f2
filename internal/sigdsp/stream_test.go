package sigdsp

import (
	"math"
	"testing"
	"testing/quick"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/rng"
	"rpbeat/internal/testutil"
)

// runStage feeds x through an in-place stage pass in chunks of the given
// sizes (cycled) and returns everything it emitted.
func runStage(pass func([]float64) int, x []float64, sizes ...int) []float64 {
	var out []float64
	for off, c := 0, 0; off < len(x); c++ {
		end := min(off+sizes[c%len(sizes)], len(x))
		chunk := append([]float64(nil), x[off:end]...)
		out = append(out, chunk[:pass(chunk)]...)
		off = end
	}
	return out
}

// keyed is a keyed stage pass over floats: it passes their order keys and
// writes the outputs back as floats.
func keyed(pass func([]int64) int) func([]float64) int {
	return func(x []float64) int {
		keys := make([]int64, len(x))
		for i, v := range x {
			keys[i] = orderKey(v)
		}
		n := pass(keys)
		for i, k := range keys[:n] {
			x[i] = keyFloat(k)
		}
		return n
	}
}

// tieSignal is quantized to a few levels, both zeros included, so equal
// samples are common and a tie rule that kept the wrong one would show in
// the bits.
func tieSignal(r *rng.Rand, n int) []float64 {
	levels := []float64{-2, -1, math.Copysign(0, -1), 0, 1, 2}
	x := make([]float64, n)
	for i := range x {
		x[i] = levels[r.Intn(len(levels))]
	}
	return x
}

// plusZero is x with −0 read as +0, the input the 3-sample stages and the
// filter are held to their references over.
func plusZero(x []float64) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		if v == 0 {
			v = 0
		}
		y[i] = v
	}
	return y
}

// zerosSignal holds only ±0, so every window is a tie of values whose bits
// differ.
func zerosSignal(r *rng.Rand, n int) []float64 {
	x := tieSignal(r, n)
	for i, v := range x {
		x[i] = math.Copysign(0, v)
	}
	return x
}

// newestExtremum is the extremum of w scanned oldest to newest, a tie going
// to the newer sample.
func newestExtremum(w []float64, dilate bool) float64 {
	best := w[0]
	for _, v := range w[1:] {
		if (dilate && v >= best) || (!dilate && v <= best) {
			best = v
		}
	}
	return best
}

// The wedge with no output lag is the plain trailing-window extremum, ties
// to the newest sample; the window is shorter during warm-up.
func TestStreamExtremumMatchesTrailingWindow(t *testing.T) {
	r := rng.New(1)
	for length := 1; length <= 200; length++ {
		x := tieSignal(r, 3*length+50)
		for _, dilate := range []bool{false, true} {
			w := newWedge(length, dilate)
			w.right = 0
			got := runStage(keyed(w.pass), x, 1+length%7, 64, 3)
			if len(got) != len(x) {
				t.Fatalf("len %d: emitted %d samples, want %d", length, len(got), len(x))
			}
			for i, v := range got {
				want := newestExtremum(x[max(0, i-length+1):i+1], dilate)
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("len %d dilate %v sample %d: %v want %v", length, dilate, i, v, want)
				}
			}
		}
	}
}

// morphStage is the streaming form of Erode (dilate false) or Dilate with
// a flat element of the given length, as StreamECGFilter builds it: the
// fused 3-tap stage for the noise element, over the keys of its input with
// −0 read as +0, as PushChunk runs it, and a wedge otherwise. flush writes
// the delay outputs the stage owes at the end of its input to the front of
// x and returns how many, as StreamECGFilter.Flush has each stage compute
// them: the 3-tap stage's flush, or the wedge's pass over right pads.
func morphStage(length int, dilate bool) (pass func([]float64) int, flush func(x []float64) int, delay int) {
	if length == NoiseElem {
		s := &tap3[int64]{dilate: dilate}
		pass = func(x []float64) int {
			copy(x, plusZero(x))
			return keyed(s.pass)(x)
		}
		flush = func(x []float64) int {
			var keys [1]int64
			n := s.flush(keys[:], 0)
			for i, k := range keys[:n] {
				x[i] = keyFloat(k)
			}
			return n
		}
		return pass, flush, 1
	}
	w := newWedge(length, dilate)
	return keyed(w.pass), func(x []float64) int {
		pads := make([]int64, w.right)
		for i := range pads {
			pads[i] = w.pad()
		}
		n := w.pass(pads)
		for i, k := range pads[:n] {
			x[i] = keyFloat(k)
		}
		return n
	}, w.right
}

// The centered stages equal the batch operators bitwise from sample 0 (the
// trailing window over the first samples covers exactly the batch
// operator's shrunken window) and emit all but their last Delay() outputs,
// which flush emits, to the last sample (ties to the newest). The wedges
// keep the batch operators' ±0 ties; the 3-sample stage reads −0 as +0, so
// it is held to them over that input.
func TestStreamMorphMatchesBatchAfterWarmup(t *testing.T) {
	r := rng.New(2)
	for _, length := range []int{3, 5, 9, 31, 73, 109, 181} {
		zeros := zerosSignal(r, 400)
		for name, x := range map[string][]float64{"random": randomSignal(r, 400), "ties": tieSignal(r, 400), "zeros": zeros} {
			for _, dilate := range []bool{false, true} {
				ref := x
				if length == NoiseElem {
					ref = plusZero(x)
				}
				want := Erode(ref, length)
				if dilate {
					want = Dilate(ref, length)
				}
				pass, flush, delay := morphStage(length, dilate)
				got := runStage(pass, x, 1, 2, 63, 64, 65)
				if len(got) != len(x)-delay {
					t.Fatalf("len %d: emitted %d samples, want %d", length, len(got), len(x)-delay)
				}
				tail := make([]float64, delay)
				if got = append(got, tail[:flush(tail)]...); len(got) != len(x) {
					t.Fatalf("len %d: %d samples after flush, want %d", length, len(got), len(x))
				}
				for i, v := range got {
					if math.Float64bits(v) != math.Float64bits(want[i]) {
						t.Fatalf("len %d %s dilate %v sample %d: stream %v batch %v",
							length, name, dilate, i, v, want[i])
					}
				}
			}
		}
	}
}

// StreamECGFilter runs the baseline's two adjacent dilations, by OpenLen
// and by CloseLen, as one of OpenLen+CloseLen-1. That holds bit for bit
// because the centred windows of flat odd elements compose to their union,
// clipped at both borders alike, and two newest-wins stages pick the union's
// newest extremal sample. The lengths clip the windows at one border, both
// or neither.
func TestMorphCompositionIsOneElement(t *testing.T) {
	r := rng.New(3)
	for _, ab := range [][2]int{{3, 3}, {73, 109}, {109, 73}} {
		a, b := ab[0], ab[1]
		for _, n := range []int{1, 2, 36, 90, 91, 180, 181, 400} {
			zeros := zerosSignal(r, n)
			for name, x := range map[string][]float64{"random": randomSignal(r, n), "ties": tieSignal(r, n), "zeros": zeros} {
				for _, dilate := range []bool{false, true} {
					op := Erode
					if dilate {
						op = Dilate
					}
					want, got := op(op(x, a), b), op(x, a+b-1)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("(%d, %d) n=%d %s dilate %v sample %d: one element %v, composition %v",
								a, b, n, name, dilate, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestNoiseStagesDataIndependent holds the noise stages to conditional-move
// selects: four stages in the oc order cost the same per block over white
// noise as over a flat lead, both instantiations: over the order keys of
// an N(0,1) lead, as PushChunk runs them, and over 11-bit counts, as
// PushCounts does. A select compiled to a jump shows as about 3x, since
// the predictor loses about half the comparisons between noisy neighbours
// and none on a flat lead. Each noise lead is 2^16 samples, a cycle too
// long for a predictor to learn, where one 64-sample block repeated would
// be learned and hide the jumps.
func TestNoiseStagesDataIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the timing ratio; CI runs this un-instrumented")
	}
	const n = 1 << 16
	keys := make([]int64, n)
	for i, v := range randomSignal(rng.New(4), n) {
		keys[i] = orderKey(v)
	}
	r := rng.New(5)
	counts := make([]int32, n)
	for i := range counts {
		counts[i] = int32(r.Intn(ecgsyn.ADCMax + 1))
	}
	for _, c := range []struct {
		name        string
		noise, flat func(n int)
	}{
		{"tap3[int64]", noiseStages(keys), noiseStages(make([]int64, n))},
		{"tap3[int32]", noiseStages(counts), noiseStages(make([]int32, n))},
	} {
		ratio, noiseNs, flatNs := testutil.MedianRatio(21, c.noise, c.flat)
		t.Logf("%s: noise %.0f ns/block, flat %.0f ns/block: median pair ratio %.2fx", c.name, noiseNs, flatNs, ratio)
		if ratio > 1.25 {
			t.Errorf("four %s noise stages cost %.2fx over noise what they cost over a flat lead (median pair), want <= 1.25x",
				c.name, ratio)
		}
	}
}

// noiseStages returns a timing op that runs four tap3 stages in the oc
// order over consecutive blocks of lead.
func noiseStages[T int32 | int64](lead []T) func(n int) {
	s := [4]tap3[T]{{}, {dilate: true}, {dilate: true}, {}}
	return blocks(lead, func(x []T) {
		k := len(x)
		for i := range s {
			k = s[i].pass(x[:k])
		}
	})
}

// TestBaselineCascadeDataIndependent holds the baseline wedges to
// branch-free selects: the three wedges in the filter's order (erode 73,
// dilate 181, erode 109 at 360 Hz) cost the same per block over white noise
// as over a flat lead. A wedge whose pop loop branches on the data, as
// Lemire's monotonic wedge does, reads about 2x: its pops follow the noise,
// and a flat lead pops the same way every time. The flat lead sits at a
// non-zero level, away from the ±0 tie rule, and each lead is 2^16 samples,
// as in TestNoiseStagesDataIndependent.
func TestBaselineCascadeDataIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the timing ratio; CI runs this un-instrumented")
	}
	const n = 1 << 16
	cfg := DefaultBaselineConfig(360)
	ol, cl := cfg.OpenLen(), cfg.CloseLen()
	cascade := func(lead []float64) func(n int) {
		s := [3]wedge{newWedge(ol, false), newWedge(ol+cl-1, true), newWedge(cl, false)}
		keys := make([]int64, len(lead))
		for i, v := range lead {
			keys[i] = orderKey(v)
		}
		return blocks(keys, func(x []int64) {
			k := len(x)
			for i := range s {
				k = s[i].pass(x[:k])
			}
		})
	}
	flat := make([]float64, n)
	for i := range flat {
		flat[i] = 1.5
	}
	ratio, noiseNs, flatNs := testutil.MedianRatio(21, cascade(randomSignal(rng.New(6), n)), cascade(flat))
	t.Logf("noise %.0f ns/block, flat %.0f ns/block: median pair ratio %.2fx", noiseNs, flatNs, ratio)
	if ratio > 1.25 {
		t.Errorf("the baseline wedges cost %.2fx over noise what they cost over a flat lead (median pair), want <= 1.25x", ratio)
	}
}

// blocks returns a timing op that copies n consecutive Block-sample blocks
// of lead, cycling, into a buffer and runs stages over each.
func blocks[T any](lead []T, stages func(x []T)) func(n int) {
	var buf [Block]T
	off := 0
	return func(n int) {
		for range n {
			if off == len(lead) {
				off = 0
			}
			copy(buf[:], lead[off:off+Block])
			off += Block
			stages(buf[:])
		}
	}
}

func TestStreamMorphPropertyEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		length := 3 + r.Intn(20)
		x := randomSignal(r, 100+r.Intn(100))
		batch := Erode(x, length)
		pass, _, _ := morphStage(length, false)
		got := runStage(pass, x, 1+r.Intn(70), 1+r.Intn(70))
		for i := range got {
			if got[i] != batch[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStreamExtremumBoundedMemory(t *testing.T) {
	w := newWedge(16, true)
	w.right = 0
	bufs := [2]*int64{&w.cur[0], &w.suf[0]}
	r := rng.New(9)
	var x [1]int64
	for i := 0; i < 10000; i++ {
		x[0] = orderKey(r.Norm())
		w.pass(x[:])
		if len(w.cur) != 17 || len(w.suf) != 17 {
			t.Fatalf("wedge holds block buffers of %d and %d keys for a 16-sample window, want 17 each", len(w.cur), len(w.suf))
		}
	}
	if cur, suf := &w.cur[0], &w.suf[0]; cur == suf || (cur != bufs[0] && cur != bufs[1]) || (suf != bufs[0] && suf != bufs[1]) {
		t.Fatal("wedge block buffers were reallocated; a pass must not allocate")
	}
}
