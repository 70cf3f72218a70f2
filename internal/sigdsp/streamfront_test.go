package sigdsp

import (
	"math"
	"testing"
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
func chunks(x []float64, size int) [][]float64 {
	if size == 0 {
		size = len(x)
	}
	var out [][]float64
	for off := 0; off < len(x); off += size {
		out = append(out, x[off:min(off+size, len(x))])
	}
	return out
}

func TestStreamECGFilterMatchesFilterECG(t *testing.T) {
	x := noisyECGLike(4000)
	cfg := DefaultBaselineConfig(360)
	batch := FilterECG(x, cfg)

	for _, size := range chunkSizes {
		f := NewStreamECGFilter(cfg)
		if f.Delay() <= 0 {
			t.Fatal("no group delay reported")
		}
		var out []float64
		for _, c := range chunks(x, size) {
			dst := make([]float64, len(c))
			out = append(out, dst[:f.PushChunk(dst, c)]...)
		}
		if len(out) != len(x)-f.Delay() {
			t.Fatalf("chunk %d: emitted %d samples, want n-delay = %d", size, len(out), len(x)-f.Delay())
		}
		// The stream is bit-identical from sample 0: the trailing windows
		// over the first samples cover exactly the batch operators' shrunken
		// windows.
		for i, y := range out {
			if y != batch[i] {
				t.Fatalf("chunk %d: sample %d: stream %g != batch %g", size, i, y, batch[i])
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

// chunk180 runs op over consecutive 180-sample chunks of x (the serving
// chunk: 0.5 s at 360 Hz) and reports the cost per sample.
func chunk180(b *testing.B, x []float64, op func(chunk []float64)) {
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
	x := noisyECGLike(4096)
	f := NewStreamECGFilter(DefaultBaselineConfig(360))
	var dst [180]float64
	chunk180(b, x, func(c []float64) { f.PushChunk(dst[:], c) })
}

func BenchmarkKernel_StreamDWTChunk180(b *testing.B) {
	x := noisyECGLike(4096)
	d := NewStreamDWT(3)
	var w [3][180]float64
	dst := [][]float64{w[0][:], w[1][:], w[2][:]}
	chunk180(b, x, func(c []float64) { d.PushChunk(dst, c) })
}
