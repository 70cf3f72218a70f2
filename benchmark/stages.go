package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/gate"
	"rpbeat/internal/peak"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/sigdsp"
	"rpbeat/internal/wire"
)

// The stage replay feeds the workload's own records through the public
// stage operators the serving pipeline chains (pipeline.PushChunk and
// pipeline.BatchClassifyInto), timing each stage per chunk or per record.
// Its beats must equal the served beats, which is what makes its timings
// the timings of the served work.

// Serving defaults of pipeline.Config{}, spelled out for the operators.
const (
	beatBefore = 100
	beatAfter  = 100
	batchDWT   = 4 // levels peak.DetectInto decomposes into
	streamDWT  = 3 // levels peak.StreamDetector consumes
)

func baselineConfig() sigdsp.BaselineConfig { return sigdsp.DefaultBaselineConfig(fs) }
func peakConfig() peak.Config               { return peak.Config{Fs: fs, SearchBackOff: true} }
func toMillivolts(v int32) float64          { return float64(v-ecgsyn.Baseline) / ecgsyn.Gain }

// streamCost is the stage replay of one record through the streaming
// operators.
type streamCost struct {
	samples  int
	filterNs float64
	dwtNs    float64
	detectNs float64 // StreamDetector.Push, its own wavelet transform included
	classNs  [2]float64
	chunkNs  []float64 // per chunk: filter + detector + classification (both heads, halved)
	beats    [2][]pipeline.BeatResult
}

// replayStream runs lead chunk by chunk through StreamECGFilter,
// StreamDWT(3) (timed alone, for the split), StreamDetector and the window
// + downsample + ClassifyInto step of both heads.
func replayStream(lead []int32, embs [2]*core.Embedded) (*streamCost, error) {
	filter := sigdsp.NewStreamECGFilter(baselineConfig())
	dwt := sigdsp.NewStreamDWT(streamDWT)
	det, err := peak.NewStreamDetector(peakConfig())
	if err != nil {
		return nil, err
	}
	var (
		win     = make([]int32, beatBefore+beatAfter)
		ds      [2][]int32
		scr     [2]*core.Scratch
		filt    = make([]float64, 0, chunkSamples)
		rawIdx  = make([]int, 0, chunkSamples)
		found   []int
		foundAt []int
	)
	for h := range embs {
		ds[h] = make([]int32, embs[h].D)
		scr[h] = core.NewScratch(embs[h])
	}
	c := &streamCost{samples: len(lead)}
	for off := 0; off < len(lead); off += chunkSamples {
		chunk := lead[off:min(off+chunkSamples, len(lead))]
		t0 := time.Now()
		filt, rawIdx = filt[:0], rawIdx[:0]
		for i, v := range chunk {
			if y, ok := filter.Push(toMillivolts(v)); ok {
				filt = append(filt, y)
				rawIdx = append(rawIdx, off+i)
			}
		}
		t1 := time.Now()
		for _, y := range filt {
			dwt.Push(y)
		}
		t2 := time.Now()
		found, foundAt = found[:0], foundAt[:0]
		for i, y := range filt {
			for _, pk := range det.Push(y) {
				found = append(found, pk)
				foundAt = append(foundAt, rawIdx[i])
			}
		}
		t3 := time.Now()
		var classNs float64
		for h, emb := range embs {
			s := time.Now()
			for i, pk := range found {
				sigdsp.WindowIntInto(win, lead[:rawIdx[len(rawIdx)-1]+1], pk, beatBefore)
				sigdsp.DownsampleIntInto(ds[h], win, emb.Downsample)
				d := emb.ClassifyInto(ds[h], scr[h])
				c.beats[h] = append(c.beats[h], pipeline.BeatResult{Peak: pk, Decision: d, DetectedAt: foundAt[i]})
			}
			ns := float64(time.Since(s))
			c.classNs[h] += ns
			classNs += ns
		}
		c.filterNs += float64(t1.Sub(t0))
		c.dwtNs += float64(t2.Sub(t1))
		c.detectNs += float64(t3.Sub(t2))
		c.chunkNs = append(c.chunkNs, float64(t1.Sub(t0))+float64(t3.Sub(t2))+classNs/2)
	}
	return c, nil
}

// streamLedger sums stream replays into per-sample and per-beat rows.
type streamLedger struct {
	filterNs, dwtNs, detectSelfNs float64 // per sample
	classNs                       [2]float64
	beatsPerSample                float64
	samples                       int
}

func sumStream(costs []*streamCost) streamLedger {
	var l streamLedger
	var filter, dwt, det float64
	var class [2]float64
	var beats [2]int
	for _, c := range costs {
		l.samples += c.samples
		filter += c.filterNs
		dwt += c.dwtNs
		det += c.detectNs
		for h := range class {
			class[h] += c.classNs[h]
			beats[h] += len(c.beats[h])
		}
	}
	n := float64(l.samples)
	l.filterNs, l.dwtNs, l.detectSelfNs = filter/n, dwt/n, (det-dwt)/n
	for h := range class {
		l.classNs[h] = class[h] / float64(max(1, beats[h]))
	}
	l.beatsPerSample = float64(beats[0]) / n
	return l
}

// perSampleNs is the streaming pipeline's replayed compute per sample, with
// the classification cost averaged over the two heads.
func (l streamLedger) perSampleNs() float64 {
	return l.filterNs + l.dwtNs + l.detectSelfNs + l.beatsPerSample*(l.classNs[0]+l.classNs[1])/2
}

// sameBeats compares served beats with replayed or reference ones over the
// positions both cover; it returns a description of the first difference.
func sameBeats(got, want []pipeline.BeatResult, limit int) string {
	i, j := 0, 0
	for {
		for i < len(got) && got[i].Peak >= limit {
			i = len(got)
		}
		for j < len(want) && want[j].Peak >= limit {
			j = len(want)
		}
		if i == len(got) || j == len(want) {
			if i != len(got) || j != len(want) {
				return fmt.Sprintf("beat count differs before sample %d: %d served vs %d reference", limit, countBelow(got, limit), countBelow(want, limit))
			}
			return ""
		}
		if got[i].Peak != want[j].Peak || got[i].Decision != want[j].Decision {
			return fmt.Sprintf("beat %d: served %d/%v, reference %d/%v", i, got[i].Peak, got[i].Decision, want[j].Peak, want[j].Decision)
		}
		i++
		j++
	}
}

func countBelow(b []pipeline.BeatResult, limit int) int {
	n := 0
	for _, x := range b {
		if x.Peak < limit {
			n++
		}
	}
	return n
}

// batchLedger is the stage replay of whole records through the batch
// operators /v1/classify runs.
type batchLedger struct {
	filterNs, dwtNs, detectSelfNs float64 // per sample
	classNs                       [2]float64
	samples                       int
}

// replayBatch times FilterECGInto, AtrousDWTInto (the detector's own
// depth), DetectInto and the per-beat classification over each record, and
// checks the beats equal pipeline.BatchClassify.
func replayBatch(leads [][]int32, embs [2]*core.Embedded, refs [][2][]pipeline.BeatResult) (batchLedger, error) {
	var (
		l                batchLedger
		fscr             sigdsp.FilterScratch
		pscr             peak.Scratch
		d                sigdsp.DWT
		mv               []float64
		filt             []float64
		win              = make([]int32, beatBefore+beatAfter)
		filter, dwt, det float64
		class            [2]float64
		beats            [2]int
	)
	for r, lead := range leads {
		mv = mv[:0]
		for _, v := range lead {
			mv = append(mv, toMillivolts(v))
		}
		t0 := time.Now()
		filt = sigdsp.FilterECGInto(filt, mv, baselineConfig(), &fscr)
		t1 := time.Now()
		sigdsp.AtrousDWTInto(&d, filt, batchDWT)
		t2 := time.Now()
		peaks := peak.DetectInto(filt, peakConfig(), &pscr)
		t3 := time.Now()
		filter += float64(t1.Sub(t0))
		dwt += float64(t2.Sub(t1))
		det += float64(t3.Sub(t2))
		l.samples += len(lead)
		for h, emb := range embs {
			ds := make([]int32, emb.D)
			scr := core.NewScratch(emb)
			got := make([]pipeline.BeatResult, 0, len(peaks))
			s := time.Now()
			for _, pk := range peaks {
				sigdsp.WindowIntInto(win, lead, pk, beatBefore)
				sigdsp.DownsampleIntInto(ds, win, emb.Downsample)
				got = append(got, pipeline.BeatResult{Peak: pk, Decision: emb.ClassifyInto(ds, scr)})
			}
			class[h] += float64(time.Since(s))
			beats[h] += len(peaks)
			if msg := sameBeats(got, refs[r][h], len(lead)); msg != "" {
				return l, fmt.Errorf("batch stage replay of record %d, %s head differs from BatchClassify: %s", r, heads[h], msg)
			}
		}
	}
	n := float64(l.samples)
	l.filterNs, l.dwtNs, l.detectSelfNs = filter/n, dwt/n, (det-dwt)/n
	for h := range class {
		l.classNs[h] = class[h] / float64(max(1, beats[h]))
	}
	return l, nil
}

// timeLoop runs fn repeatedly for about d and returns the mean ns per call.
func timeLoop(d time.Duration, fn func()) float64 {
	fn() // warm
	n := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < 16; i++ {
			fn()
		}
		n += 16
	}
	return float64(time.Since(start)) / float64(n)
}

// frameDecodeNs is wire.DecodeFrame over the given binary bodies, per sample.
func frameDecodeNs(bodies [][]byte) float64 {
	var dst []int32
	total := 0
	for _, b := range bodies {
		total += countSamples(b)
	}
	ns := timeLoop(200*time.Millisecond, func() {
		for _, b := range bodies {
			data := b
			dst = dst[:0]
			for len(data) > 0 {
				var err error
				if dst, data, err = wire.DecodeFrame(dst, data); err != nil {
					panic(err) // the bodies were encoded by wire.AppendFrame
				}
			}
		}
	})
	return ns / float64(total)
}

func countSamples(frames []byte) int {
	n := 0
	var dst []int32
	for len(frames) > 0 {
		var err error
		dst, frames, err = wire.DecodeFrame(dst[:0], frames)
		if err != nil {
			return n
		}
		n += len(dst)
	}
	return n
}

// jsonParseNs is wire.ParseClassify over the given JSON bodies, per sample.
func jsonParseNs(bodies [][]byte) float64 {
	var dst []int32
	total := 0
	for _, b := range bodies {
		_, s, err := wire.ParseClassify(nil, b)
		if err != nil {
			panic(err) // the bodies were encoded by encoding/json
		}
		total += len(s)
	}
	ns := timeLoop(200*time.Millisecond, func() {
		for _, b := range bodies {
			_, dst, _ = wire.ParseClassify(dst[:0], b)
		}
	})
	return ns / float64(total)
}

// classifyEncodeNs is wire.AppendClassifyResponse over the served beats,
// per beat.
func classifyEncodeNs(model string, beats [][]pipeline.BeatResult) float64 {
	var buf []byte
	total := 0
	for _, b := range beats {
		total += len(b)
	}
	ns := timeLoop(100*time.Millisecond, func() {
		for _, b := range beats {
			buf = wire.AppendClassifyResponse(buf[:0], model, b)
		}
	})
	return ns / float64(max(1, total))
}

// streamEncodeNs is wire.AppendStreamBeat over the served beats, per beat.
func streamEncodeNs(beats [][]pipeline.BeatResult) float64 {
	var buf []byte
	total := 0
	for _, b := range beats {
		total += len(b)
	}
	ns := timeLoop(100*time.Millisecond, func() {
		for _, bs := range beats {
			buf = buf[:0]
			for _, b := range bs {
				buf = wire.AppendStreamBeat(buf, b.Peak, b.Decision.String(), b.DetectedAt)
			}
		}
	})
	return ns / float64(max(1, total))
}

// relayNsPerKB is gate.RelayCopy over the given downlink bodies, per KiB.
func relayNsPerKB(bodies [][]byte) float64 {
	buf := make([]byte, 32<<10)
	total := 0
	for _, b := range bodies {
		total += len(b)
	}
	flush := func() error { return nil }
	var rd bytes.Reader
	ns := timeLoop(100*time.Millisecond, func() {
		for _, b := range bodies {
			rd.Reset(b)
			gate.RelayCopy(io.Discard, flush, lineReader{&rd}, buf)
		}
	})
	return ns / (float64(total) / 1024)
}

// lineReader hands the relay one NDJSON line per Read, the granularity a
// backend flushes at.
type lineReader struct{ r *bytes.Reader }

func (l lineReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c, err := l.r.ReadByte()
		if err != nil {
			if n > 0 {
				return n, nil
			}
			return 0, err
		}
		p[n] = c
		n++
		if c == '\n' {
			break
		}
	}
	return n, nil
}

// journalAppendNs is one replay-journal append + send + ack cycle at the
// gateway's default window, for one uplink frame.
func journalAppendNs(frameBytes int) float64 {
	b := gate.NewJournalBench(pipeline.ResyncWarmup(pipeline.Config{}), frameBytes, chunkSamples)
	for i := 0; i < 1000; i++ {
		b.Step()
	}
	return timeLoop(100*time.Millisecond, func() { b.Step() })
}

// classifyAll runs BatchClassify for every record and head.
func classifyAll(ctx context.Context, embs [2]*core.Embedded, leads [][]int32) ([][2][]pipeline.BeatResult, error) {
	out := make([][2][]pipeline.BeatResult, len(leads))
	for r, lead := range leads {
		for h, emb := range embs {
			b, err := pipeline.BatchClassify(ctx, emb, lead, pipeline.Config{})
			if err != nil {
				return nil, err
			}
			out[r][h] = b
		}
	}
	return out, nil
}
