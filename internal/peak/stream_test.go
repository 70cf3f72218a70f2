package peak

import (
	"math"
	"slices"
	"testing"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/sigdsp"
)

// filteredRecord synthesizes a record and runs the batch front end, giving
// both detectors the identical filtered lead.
func filteredRecord(seconds float64, seed uint64, pvc float64) []float64 {
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "sd", Seconds: seconds, Seed: seed, PVCRate: pvc})
	return sigdsp.FilterECG(rec.LeadMillivolts(0), sigdsp.DefaultBaselineConfig(rec.Fs))
}

// boundaryLead is a synthetic filtered lead whose adaptive-threshold windows
// alternate between three narrow beats and one wide beat, so neighbouring
// windows' thresholds differ, with a small bump across each window boundary
// that puts a modulus maximum of the detection signal on the last index of
// a window. The extremum scan reaches that index only once the next window
// has completed, and must still test it against its own window's
// threshold, as Detect does.
func boundaryLead() []float64 {
	const win = 720 // the detector window at 360 Hz
	x := make([]float64, 6*win)
	bump := func(center, width, amp float64) {
		for i := range x {
			if d := (float64(i) - center) / width; d > -6 && d < 6 {
				x[i] += amp * math.Exp(-d*d/2)
			}
		}
	}
	for w := 0; w < 6; w++ {
		if w%2 == 0 {
			for _, at := range []int{150, 360, 570} {
				bump(float64(w*win+at), 4, 1)
			}
		} else {
			bump(float64(w*win+360), 10, 1)
		}
	}
	for k := 1; k < 6; k++ {
		bump(float64(k*win+1), 4, 0.3)
	}
	return x
}

func TestStreamDetectorMatchesBatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		x    []float64
	}{
		{"seed 1", filteredRecord(180, 1, 0)},
		{"seed 2", filteredRecord(180, 2, 0.15)},
		{"seed 7", filteredRecord(180, 7, 0.3)},
		{"window boundary", boundaryLead()},
	} {
		x := tc.x
		cfg := Config{Fs: 360, SearchBackOff: true}
		batch := Detect(x, cfg)

		// Chunked feeds must not move a peak: a whole-record call, the
		// serving chunk, both sides of sigdsp.Block, one sample at a time.
		for _, size := range []int{len(x), 180, 65, 64, 1} {
			d, err := NewStreamDetector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var stream []int
			for off := 0; off < len(x); off += size {
				for y := x[off:min(off+size, len(x))]; len(y) > 0; {
					used, peaks := d.PushChunk(y)
					y = y[used:]
					stream = append(stream, peaks...)
				}
			}
			stream = append(stream, d.Flush()...)

			// Batch thresholds near the record end come from windows the
			// stream only completes at Flush with fewer samples (the wavelet
			// tail is never produced), so parity is asserted away from the
			// right border.
			tail := len(x) - d.Delay()
			want := keepBefore(batch, tail)
			got := keepBefore(stream, tail)
			if len(want) == 0 {
				t.Fatalf("%s: batch found no peaks before the tail margin", tc.name)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s chunk %d: stream peaks %v, batch %v", tc.name, size, got, want)
			}
		}
	}
}

func keepBefore(peaks []int, limit int) []int {
	out := peaks[:0:0]
	for _, p := range peaks {
		if p < limit {
			out = append(out, p)
		}
	}
	return out
}

func TestStreamDetectorPeaksAreOrderedAndFinal(t *testing.T) {
	x := filteredRecord(120, 3, 0.1)
	d, err := NewStreamDetector(Config{Fs: 360, SearchBackOff: true})
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	for n, v := range x {
		for _, p := range d.Push(v) {
			if p <= last {
				t.Fatalf("peak %d emitted after %d (out of order)", p, last)
			}
			if lat := n - p; lat > d.Delay() {
				t.Fatalf("peak %d finalized %d samples late (> Delay %d)", p, lat, d.Delay())
			}
			last = p
		}
	}
}

func TestStreamDetectorRequiresSearchBackOff(t *testing.T) {
	if _, err := NewStreamDetector(Config{Fs: 360}); err == nil {
		t.Fatal("expected an error when search-back is enabled")
	}
}

func BenchmarkStreamDetectorPush(b *testing.B) {
	x := filteredRecord(60, 9, 0.1)
	d, _ := NewStreamDetector(Config{Fs: 360, SearchBackOff: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(x[i%len(x)])
	}
}

// BenchmarkKernel_StreamDetectorChunk180 feeds the detector 180-sample
// chunks of a filtered lead (the serving chunk: 0.5 s at 360 Hz), its own
// wavelet transform included.
func BenchmarkKernel_StreamDetectorChunk180(b *testing.B) {
	const size = 180
	x := filteredRecord(60, 9, 0.1)
	d, _ := NewStreamDetector(Config{Fs: 360, SearchBackOff: true})
	b.ReportAllocs()
	off := 0
	for b.Loop() {
		if off+size > len(x) {
			off = 0
		}
		for y := x[off : off+size]; len(y) > 0; {
			used, _ := d.PushChunk(y)
			y = y[used:]
		}
		off += size
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/sample")
}
