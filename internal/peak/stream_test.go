package peak

import (
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

func TestStreamDetectorMatchesBatch(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		pvc  float64
	}{{1, 0}, {2, 0.15}, {7, 0.3}} {
		x := filteredRecord(180, tc.seed, tc.pvc)
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
				t.Fatalf("seed %d: batch found no peaks before the tail margin", tc.seed)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d chunk %d: stream found %d peaks, batch %d", tc.seed, size, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d chunk %d: peak %d at %d, batch at %d", tc.seed, size, i, got[i], want[i])
				}
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
