package pipeline

import (
	"context"
	"encoding/binary"
	"testing"

	"rpbeat/internal/ecgsyn"
)

// FuzzPipelineMatchesBatch holds the pipeline to BatchClassify on
// arbitrary in-domain input split at arbitrary chunk boundaries: samples
// are 11-bit ADC counts (two bytes each, mod ecgsyn.ADCMax+1), and each
// byte of chunks is one chunk length, 1 to 256 samples, cycled (no bytes:
// the whole record in one call). The stream must not panic, must equal
// BatchClassify beat for beat, position and class, to the last sample, and
// must stamp every beat with a DetectedAt at or after its Peak that never
// decreases (streamRecord checks those).
func FuzzPipelineMatchesBatch(f *testing.F) {
	emb := testModel(f)
	encode := func(lead []int32) []byte {
		b := make([]byte, 2*len(lead))
		for i, v := range lead {
			binary.LittleEndian.PutUint16(b[2*i:], uint16(v))
		}
		return b
	}
	ecg := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "fz", Seconds: 12, Seed: 2, PVCRate: 0.2}).Leads[0]
	f.Add(encode(ecg), []byte{179})
	hostile := hostileLeads(3000)
	f.Add(encode(hostile["flat"]), []byte{63, 64})
	f.Add(encode(hostile["square"]), []byte{0, 255})
	f.Add(encode(hostile["noise"]), []byte{})
	// Lengths around Detect's minimum, the filter's delay and the
	// pipeline's.
	for _, n := range []int{0, 1, 15, 16, 183, 184, 185, 1778, 1779, 1780} {
		f.Add(encode(ecg[:n]), []byte{byte(n)})
	}
	f.Add(encode(short15), []byte{6})

	f.Fuzz(func(t *testing.T, samples, chunks []byte) {
		if len(samples) > 2*16384 {
			samples = samples[:2*16384]
		}
		lead := make([]int32, len(samples)/2)
		for i := range lead {
			lead[i] = int32(binary.LittleEndian.Uint16(samples[2*i:]) % (ecgsyn.ADCMax + 1))
		}
		sizes := []int{max(len(lead), 1)}
		if len(chunks) > 0 {
			sizes = sizes[:0]
			for _, c := range chunks {
				sizes = append(sizes, 1+int(c))
			}
		}
		batch, err := BatchClassify(context.Background(), emb, lead, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if msg := sameBeats(streamRecord(t, emb, lead, sizes...), batch); msg != "" {
			t.Fatalf("%d samples in chunks of %v: %s", len(lead), sizes, msg)
		}
	})
}
