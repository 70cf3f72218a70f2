package sigdsp

import (
	"encoding/binary"
	"math"
	"testing"

	"rpbeat/internal/ecgsyn"
)

// FuzzFrontEndChunks holds the block front end to its references on
// arbitrary in-domain input split at arbitrary chunk boundaries: samples
// are 11-bit ADC counts (two bytes each, mod ecgsyn.ADCMax+1) converted
// with ecgsyn.ToMillivolts, and each byte of chunks is one chunk length,
// 1 to 256 samples, cycled (no bytes: the whole record in one call). The
// streaming filter, flushed at the end, must equal the Open/Close
// composition RemoveBaseline(SuppressNoise(x)) to the last sample, and a
// StreamDWT fed the filter's output chunks, its flushed tail last, then
// flushed itself, must equal AtrousDWT over that output, bit for bit. The
// same filter, Reset, then takes the counts themselves through PushCounts
// in the same chunks, and flushed it must equal the composition too.
func FuzzFrontEndChunks(f *testing.F) {
	const n = 1500
	seed := func(sample func(i int) int32) []byte {
		b := make([]byte, 2*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint16(b[2*i:], uint16(sample(i)))
		}
		return b
	}
	f.Add(seed(func(int) int32 { return ecgsyn.Baseline }), []byte{179})
	f.Add(seed(func(i int) int32 { // rail to rail
		if i/40%2 == 0 {
			return 0
		}
		return ecgsyn.ADCMax
	}), []byte{62, 63, 64})
	f.Add(seed(func(i int) int32 { // a lone spike on a flat line
		if i == 700 {
			return ecgsyn.ADCMax
		}
		return ecgsyn.Baseline
	}), []byte{255, 0, 7})
	f.Add(seed(func(i int) int32 { // three levels: ties everywhere
		return ecgsyn.Baseline + 24*int32((i*7+i/3)%3-1)
	}), []byte{2, 64, 100})
	f.Add(seed(func(i int) int32 { return ecgsyn.Baseline + int32(i%97) }), []byte{0})

	f.Fuzz(func(t *testing.T, samples, chunks []byte) {
		if len(samples) > 2*8192 {
			samples = samples[:2*8192]
		}
		counts := make([]int32, len(samples)/2)
		x := make([]float64, len(counts))
		for i := range x {
			counts[i] = int32(binary.LittleEndian.Uint16(samples[2*i:]) % (ecgsyn.ADCMax + 1))
			x[i] = ecgsyn.ToMillivolts(counts[i])
		}
		size := func(c int) int {
			if len(chunks) == 0 {
				return len(x)
			}
			return 1 + int(chunks[c%len(chunks)])
		}

		cfg := DefaultBaselineConfig(ecgsyn.Fs)
		filter := NewStreamECGFilter(cfg)
		dwt := NewStreamDWT(3)
		y := make([]float64, len(x))
		var wd [3][]float64
		view := make([][]float64, len(wd))
		for j := range wd {
			wd[j] = make([]float64, len(x))
		}
		// k samples filtered and m indices transformed so far; feed hands
		// the DWT the filter's next n samples.
		k, m := 0, 0
		feed := func(n int) {
			for j := range view {
				view[j] = wd[j][m:]
			}
			m += dwt.PushChunk(view, y[k:k+n])
			k += n
		}
		for off, c := 0, 0; off < len(x); c++ {
			end := min(off+size(c), len(x))
			feed(filter.PushChunk(y[k:], x[off:end]))
			off = end
		}
		if want := max(0, len(x)-filter.Delay()); k != want {
			t.Fatalf("filter emitted %d samples of %d, want %d", k, len(x), want)
		}
		if want := max(0, k-dwt.Delay()); m != want {
			t.Fatalf("DWT emitted %d samples of %d, want %d", m, k, want)
		}
		feed(filter.Flush(y[k:]))
		for j := range view {
			view[j] = wd[j][m:]
		}
		m += dwt.Flush(view)
		if k != len(x) || m != len(x) {
			t.Fatalf("after Flush: filter %d samples, DWT %d, want %d each", k, m, len(x))
		}

		ref := RemoveBaseline(SuppressNoise(x, cfg), cfg)
		for i, v := range y {
			if math.Float64bits(v) != math.Float64bits(ref[i]) {
				t.Fatalf("filtered sample %d: stream %v, reference %v", i, v, ref[i])
			}
		}
		refW := AtrousDWT(ref, 3)
		for j := range wd {
			for i, v := range wd[j] {
				if math.Float64bits(v) != math.Float64bits(refW.W[j][i]) {
					t.Fatalf("W[%d][%d]: stream %v, AtrousDWT %v", j, i, v, refW.W[j][i])
				}
			}
		}

		// The counts leg.
		filter.Reset()
		k = 0
		for off, c := 0, 0; off < len(counts); c++ {
			end := min(off+size(c), len(counts))
			k += filter.PushCounts(y[k:], counts[off:end])
			off = end
		}
		if k += filter.Flush(y[k:]); k != len(counts) {
			t.Fatalf("counts: %d samples after Flush, want %d", k, len(counts))
		}
		for i, v := range y {
			if math.Float64bits(v) != math.Float64bits(ref[i]) {
				t.Fatalf("counts: filtered sample %d: stream %v, reference %v", i, v, ref[i])
			}
		}
	})
}

// FuzzBaselineWedge holds the baseline wedge to the batch operators on any
// float64 input in the wedge's own domain, every non-NaN float64: wider
// than the front end's finite one, so ±Inf too, and ±0 ties, which
// FuzzFrontEndChunks's counts never produce. samples are little-endian
// float64 bits, NaN dropped as out of the domain; length is the element
// length, 1 to 200, which covers the filter's 73, 109 and 181; and each
// byte of chunks is one chunk length, 1 to 256 keys, cycled (no bytes:
// the whole input in one pass). An erosion and a dilation wedge each pass
// the samples' order keys, then right pads, at those chunk sizes, and their
// outputs must equal Erode and Dilate bit for bit to the last sample.
func FuzzBaselineWedge(f *testing.F) {
	seed := func(x ...float64) []byte {
		b := make([]byte, 8*len(x))
		for i, v := range x {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	// ±0 ties at the extremum of a window, for either operator.
	f.Add(seed(-1, 0, negZero, -2, negZero, 0, 1, negZero, 0, 2, 0, negZero, -3), byte(4), []byte{0, 2})
	zeros := make([]float64, 300) // zeros of both signs
	for i := range zeros {
		if i%3 == 0 || i%7 == 0 {
			zeros[i] = negZero
		}
	}
	f.Add(seed(zeros...), byte(72), []byte{63, 64})
	denormal := math.SmallestNonzeroFloat64
	f.Add(seed(denormal, -denormal, 0, negZero, 0x1p-1022, -0x1p-1022, 3*denormal, -2*denormal, negZero, denormal),
		byte(108), []byte{1})
	f.Add(seed(math.Inf(1), 0, math.Inf(-1), negZero, math.MaxFloat64, -math.MaxFloat64, math.NaN(), 1, math.Inf(-1), math.Inf(1)),
		byte(180), []byte{})

	f.Fuzz(func(t *testing.T, samples []byte, length byte, chunks []byte) {
		if len(samples) > 8*8192 {
			samples = samples[:8*8192]
		}
		x := make([]float64, 0, len(samples)/8)
		for i := 0; i+8 <= len(samples); i += 8 {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(samples[i:])); !math.IsNaN(v) {
				x = append(x, v)
			}
		}
		elem := 1 + int(length)%200
		for _, dilate := range []bool{false, true} {
			want := Erode(x, elem)
			if dilate {
				want = Dilate(x, elem)
			}
			w := newWedge(elem, dilate)
			keys, pads := make([]int64, len(x)), make([]int64, w.right)
			for i, v := range x {
				keys[i] = orderKey(v)
			}
			for i := range pads {
				pads[i] = w.pad()
			}
			var got []float64
			c := 0
			for _, in := range [][]int64{keys, pads} {
				for off := 0; off < len(in); c++ {
					size := len(in)
					if len(chunks) > 0 {
						size = 1 + int(chunks[c%len(chunks)])
					}
					chunk := in[off:min(off+size, len(in))]
					for _, k := range chunk[:w.pass(chunk)] {
						got = append(got, keyFloat(k))
					}
					off += len(chunk)
				}
			}
			if len(got) != len(x) {
				t.Fatalf("length %d dilate %v: %d outputs for %d samples", elem, dilate, len(got), len(x))
			}
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("length %d dilate %v: sample %d: stream %v, batch %v", elem, dilate, i, v, want[i])
				}
			}
		}
	})
}
