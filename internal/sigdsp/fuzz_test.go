package sigdsp

import (
	"encoding/binary"
	"testing"

	"rpbeat/internal/ecgsyn"
)

// FuzzFrontEndChunks holds the block front end to its batch reference on
// arbitrary in-domain input split at arbitrary chunk boundaries: samples
// are 11-bit ADC counts (two bytes each, mod ecgsyn.ADCMax+1) converted
// with ecgsyn.ToMillivolts, and each byte of chunks is one chunk length,
// 1 to 256 samples, cycled (no bytes: the whole record in one call). The
// streaming filter must equal FilterECG from sample 0, and a StreamDWT fed
// the filter's output chunks must equal AtrousDWT over that output, bit for
// bit, over everything they emit.
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
		x := make([]float64, len(samples)/2)
		for i := range x {
			v := binary.LittleEndian.Uint16(samples[2*i:]) % (ecgsyn.ADCMax + 1)
			x[i] = ecgsyn.ToMillivolts(int32(v))
		}
		size := func(c int) int {
			if len(chunks) == 0 {
				return len(x)
			}
			return 1 + int(chunks[c%len(chunks)])
		}

		filter := NewStreamECGFilter(DefaultBaselineConfig(ecgsyn.Fs))
		dwt := NewStreamDWT(3)
		var y []float64
		w := make([][]float64, 3)
		var wd [3][]float64
		for off, c := 0, 0; off < len(x); c++ {
			end := min(off+size(c), len(x))
			dst := make([]float64, end-off)
			k := filter.PushChunk(dst, x[off:end])
			y = append(y, dst[:k]...)
			for j := range w {
				w[j] = make([]float64, k)
			}
			m := dwt.PushChunk(w, dst[:k])
			for j := range wd {
				wd[j] = append(wd[j], w[j][:m]...)
			}
			off = end
		}

		if want := max(0, len(x)-filter.Delay()); len(y) != want {
			t.Fatalf("filter emitted %d samples of %d, want %d", len(y), len(x), want)
		}
		batch := FilterECG(x, DefaultBaselineConfig(ecgsyn.Fs))
		for i, v := range y {
			if v != batch[i] {
				t.Fatalf("filtered sample %d: stream %v, FilterECG %v", i, v, batch[i])
			}
		}
		if want := max(0, len(y)-dwt.Delay()); len(wd[0]) != want {
			t.Fatalf("DWT emitted %d samples of %d, want %d", len(wd[0]), len(y), want)
		}
		ref := AtrousDWT(y, 3)
		for j := range wd {
			for i, v := range wd[j] {
				if v != ref.W[j][i] {
					t.Fatalf("W[%d][%d]: stream %v, AtrousDWT %v", j, i, v, ref.W[j][i])
				}
			}
		}
	})
}
