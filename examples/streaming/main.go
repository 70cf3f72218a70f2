// Streaming: the sample-by-sample front end a node actually runs.
//
// The batch API (sigdsp.FilterECG) processes whole buffers; a sensor node
// sees one ADC sample every 1/360 s and has a few kilobytes of RAM, and a
// server receives each patient's samples a chunk at a time. This example
// drives the bounded-memory streaming filter (noise suppression plus
// baseline removal) over a synthetic recording in one-second chunks, shows
// its fixed group delay, and verifies that the stream output agrees with
// the batch reference — bit for bit from the first sample, whatever the
// chunking, as the library guarantees.
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"math"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/sigdsp"
)

func main() {
	log.SetFlags(0)

	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "stream", Seconds: 60, Seed: 42, PVCRate: 0.08})
	raw := rec.LeadMillivolts(0)
	cfg := sigdsp.DefaultBaselineConfig(rec.Fs)

	// Reference: the batch filter over the whole buffer.
	batch := sigdsp.FilterECG(raw, cfg)

	// Stream: one PushChunk per second of ADC samples, bounded memory.
	f := sigdsp.NewStreamECGFilter(cfg)
	fmt.Printf("streaming front end: group delay %d samples (%.0f ms at %.0f Hz)\n",
		f.Delay(), 1000*float64(f.Delay())/rec.Fs, rec.Fs)

	out := make([]float64, 0, len(raw))
	chunk := make([]float64, int(rec.Fs))
	for off := 0; off < len(raw); off += len(chunk) {
		c := chunk[:copy(chunk, raw[off:])]
		out = append(out, c[:f.PushChunk(c, c)]...)
	}
	fmt.Printf("pushed %d samples, emitted %d (the final %d need future input)\n",
		len(raw), len(out), len(raw)-len(out))

	// Agreement with the batch reference over every emitted sample.
	var maxErr float64
	for i, y := range out {
		if e := math.Abs(y - batch[i]); e > maxErr {
			maxErr = e
		}
	}
	fmt.Printf("max |stream - batch| over %d samples: %.3g mV (bit-exact)\n", len(out), maxErr)

	// What the node gains: memory. The stream keeps two samples for each of
	// its eight 3-sample noise stages, a power-of-two ring of value +
	// position (12 B per slot) for each of its four baseline stages, and an
	// 8 B/sample delay line across the baseline cascade (Delay() less the
	// four one-sample noise stages); the batch version holds the input, the
	// output and three full-record ping-pong buffers.
	ring := func(n int) int {
		p := 1
		for p < n {
			p <<= 1
		}
		return p
	}
	streamBytes := 8*2*8 + 12*2*(ring(cfg.OpenLen())+ring(cfg.CloseLen())) + 8*(f.Delay()-4)
	batchBytes := len(raw) * 8 * 5
	fmt.Printf("approx working memory: stream %d B vs batch %d B for this record\n",
		streamBytes, batchBytes)

	// Show a beat before/after filtering.
	if len(rec.Ann) > 3 {
		p := rec.Ann[3].Sample
		if p < len(out) {
			fmt.Printf("\nbeat @%d: raw %.3f mV (wandering baseline), filtered %.3f mV\n",
				p, raw[p], out[p])
		}
	}
}
