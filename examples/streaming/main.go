// Streaming: the sample-by-sample front end a node actually runs.
//
// A sensor node sees one ADC sample every 1/360 s and has a few kilobytes
// of RAM, and a server receives each patient's samples a chunk at a time.
// This example drives the bounded-memory streaming filter (noise
// suppression plus baseline removal) over a synthetic recording in
// one-second chunks, shows its fixed group delay, flushes the record's
// last Delay() samples at its end, and verifies the output against the
// filter's definition, the morphological Open/Close composition over the
// whole buffer: bit for bit from the first sample to the last, whatever
// the chunking, as the library guarantees. (sigdsp.FilterECG is these same
// kernels over a whole record, so it is no independent check.)
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/sigdsp"
)

func main() {
	log.SetFlags(0)

	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "stream", Seconds: 60, Seed: 42, PVCRate: 0.08})
	raw := rec.LeadMillivolts(0)
	cfg := sigdsp.DefaultBaselineConfig(rec.Fs)

	// Reference: the Open/Close composition over the whole buffer.
	ref := sigdsp.RemoveBaseline(sigdsp.SuppressNoise(raw, cfg), cfg)

	// Stream: one PushChunk per second of ADC samples, bounded memory,
	// then one Flush at the record's end. The filter allocates all of its
	// state here and nothing after, so the allocator's count across the
	// constructor is what the stream keeps.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := sigdsp.NewStreamECGFilter(cfg)
	runtime.ReadMemStats(&after)
	fmt.Printf("streaming front end: group delay %d samples (%.0f ms at %.0f Hz)\n",
		f.Delay(), 1000*float64(f.Delay())/rec.Fs, rec.Fs)

	out := make([]float64, len(raw))
	n := 0
	for off := 0; off < len(raw); off += int(rec.Fs) {
		n += f.PushChunk(out[n:], raw[off:min(off+int(rec.Fs), len(raw))])
	}
	pushed := n
	n += f.Flush(out[n:])
	fmt.Printf("pushed %d samples: %d out of PushChunk, %d out of Flush, %d in all\n",
		len(raw), pushed, n-pushed, n)

	// Agreement with the reference over every sample.
	var maxErr float64
	for i, y := range out[:n] {
		if e := math.Abs(y - ref[i]); e > maxErr {
			maxErr = e
		}
	}
	fmt.Printf("max |stream - reference| over %d samples: %.3g mV (bit-exact)\n", n, maxErr)

	// What the node gains: memory. The stream's state is the filter itself
	// (two newest samples for each 3-sample noise stage of both entries,
	// float and count), two int64 block buffers of length+1 keys for each
	// of its three baseline wedges (the opening's erosion, one dilation
	// standing for the opening's and the closing's, and the closing's
	// erosion: 73, 181 and 109 samples at 360 Hz), and an 8 B/sample delay
	// line across the baseline cascade (Delay() less the four one-sample
	// noise stages), each in the allocator's size class; a whole-record
	// filter also holds the record and its output.
	fmt.Printf("working memory: stream state %d B in %d allocations; a whole-record filter adds %d B of input and output\n",
		after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs, len(raw)*8*2)

	// Show a beat before/after filtering.
	if len(rec.Ann) > 3 {
		p := rec.Ann[3].Sample
		if p < len(out) {
			fmt.Printf("\nbeat @%d: raw %.3f mV (wandering baseline), filtered %.3f mV\n",
				p, raw[p], out[p])
		}
	}
}
