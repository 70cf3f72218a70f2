package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rpbeat/internal/catalog"
	"rpbeat/internal/core"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/wire"
)

// The classify workload: nproc closed-loop clients POST whole 60 s records
// to /v1/classify over keep-alive connections, alternating binary frames
// with JSON bodies and the two heads. See WORKLOADS.md for why.

// classifyWarm is how many requests each client sends in the warm-up.
const classifyWarm = 4

// classifyInputs are the request bodies, built outside the timed phase.
type classifyInputs struct {
	leads [][]int32
	json  [][]byte // {"samples":[...]} per record, encoded by encoding/json
	bin   [][]byte // wire frames per record
}

// classifyStack is the serving side plus the clients' connections.
type classifyStack struct {
	cat     *catalog.Catalog
	eng     *pipeline.Engine
	srv     *server
	clients []*http.Client
}

// request is the n-th request of client c: record, body format and head
// cycle so both formats and both heads meet every record.
func (in *classifyInputs) request(url string, c, n, nproc int) (*http.Request, int, int, int, error) {
	rec := (c + n*nproc) % numRecords
	head := (n / 2) % 2
	body, ct := in.json[rec], wire.ContentTypeJSON
	if n%2 == 0 {
		body, ct = in.bin[rec], wire.ContentTypeSamples
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/classify?model="+heads[head], bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, 0, err
	}
	req.Header.Set("Content-Type", ct)
	return req, rec, head, len(body), nil
}

// classifyReply is the /v1/classify response as a client decodes it.
type classifyReply struct {
	Model  string         `json:"model"`
	Total  int            `json:"total"`
	Counts map[string]int `json:"counts"`
	Beats  []struct {
		Sample int    `json:"sample"`
		Class  string `json:"class"`
	} `json:"beats"`
}

// checkClassify compares a response body with the BatchClassify reference.
func checkClassify(body []byte, head int, ref []pipeline.BeatResult) string {
	var got classifyReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Sprintf("undecodable response: %v", err)
	}
	if want := heads[head] + "@v1"; got.Model != want {
		return fmt.Sprintf("model %q, want %q", got.Model, want)
	}
	if got.Total != len(ref) || len(got.Beats) != len(ref) {
		return fmt.Sprintf("%d beats (total %d), reference %d", len(got.Beats), got.Total, len(ref))
	}
	counts := map[string]int{"N": 0, "L": 0, "V": 0, "U": 0}
	for i, b := range ref {
		counts[b.Decision.String()]++
		if got.Beats[i].Sample != b.Peak || got.Beats[i].Class != b.Decision.String() {
			return fmt.Sprintf("beat %d: %d/%s, reference %d/%s", i, got.Beats[i].Sample, got.Beats[i].Class, b.Peak, b.Decision)
		}
	}
	for k, v := range counts {
		if got.Counts[k] != v {
			return fmt.Sprintf("count %s = %d, reference %d", k, got.Counts[k], v)
		}
	}
	return ""
}

// windowRate is events per second over whole one-second windows, averaged
// over the middle half of the windows, so a burst of interference on a
// shared host moves it less; runs shorter than four windows fall back to
// the plain mean rate.
func windowRate(times []float64, wall float64) float64 {
	n := int(wall)
	if n < 4 {
		return float64(len(times)) / wall
	}
	counts := make([]float64, n)
	for _, t := range times {
		if i := int(t); i < n {
			counts[i]++
		}
	}
	return trimmedMean(counts)
}

// windowMedian is windowRate's counterpart for latencies: the median of
// the values completed in each whole one-second window (vals[i] completed
// at times[i]), averaged over the middle half of the windows. Runs shorter
// than four windows fall back to the plain median.
func windowMedian(times, vals []float64, wall float64) float64 {
	n := int(wall)
	if n < 4 {
		return quantile(append([]float64(nil), vals...), 0.5)
	}
	wins := make([][]float64, n)
	for i, t := range times {
		if j := int(t); j < n {
			wins[j] = append(wins[j], vals[i])
		}
	}
	meds := make([]float64, n)
	for j, w := range wins {
		meds[j] = quantile(w, 0.5)
	}
	return trimmedMean(meds)
}

// trimmedMean is the mean of the middle half of v; v is sorted in place.
func trimmedMean(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	return sum(v[n/4:n-n/4]) / float64(n-2*(n/4))
}

// do sends one request and returns the status and the whole body.
func do(client *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func runClassify(r *run) (*outcome, error) {
	o := newOutcome()
	nproc := runtime.GOMAXPROCS(0)
	in := &classifyInputs{leads: synthRecords(r.seed)}
	for _, lead := range in.leads {
		j, err := json.Marshal(struct {
			Samples []int32 `json:"samples"`
		}{lead})
		if err != nil {
			return nil, err
		}
		in.json = append(in.json, j)
		in.bin = append(in.bin, wire.AppendFrames(nil, lead, 0))
	}

	tr := newTracer(r.trace)
	stats := newHTTPStats()
	var tracing atomic.Bool
	stack, setupS, err := timeSetup(func() (*classifyStack, error) {
		cat, err := newCatalog()
		if err != nil {
			return nil, err
		}
		eng := pipeline.NewEngine(cat, pipeline.EngineConfig{})
		h := serveHandler(eng)
		if r.trace {
			th := traced("serve", tr, stats, h)
			plain := h
			h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				if tracing.Load() {
					th.ServeHTTP(w, req)
				} else {
					plain.ServeHTTP(w, req)
				}
			})
		}
		srv, err := listen(h)
		if err != nil {
			eng.Close()
			return nil, err
		}
		s := &classifyStack{cat: cat, eng: eng, srv: srv}
		for c := 0; c < nproc; c++ {
			s.clients = append(s.clients, keepAliveClient())
		}
		var wg sync.WaitGroup
		errs := make(chan error, nproc)
		for c, client := range s.clients {
			wg.Add(1)
			go func(c int, client *http.Client) {
				defer wg.Done()
				for n := 0; n < classifyWarm; n++ {
					req, _, _, _, err := in.request(srv.URL, c, n, nproc)
					if err != nil {
						errs <- err
						return
					}
					if status, body, err := do(client, req); err != nil || status != http.StatusOK {
						errs <- fmt.Errorf("warm-up request: status %d, %v: %s", status, err, trimLine(body))
						return
					}
				}
			}(c, client)
		}
		wg.Wait()
		close(errs)
		return s, <-errs
	}, func(s *classifyStack) {
		for _, c := range s.clients {
			c.CloseIdleConnections()
		}
		s.srv.close()
		s.eng.Close()
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range stack.clients {
			c.CloseIdleConnections()
		}
		stack.srv.close()
		stack.eng.Close()
	}()
	o.metrics["setup_s"] = setupS

	var embs [2]*core.Embedded
	for h, name := range heads {
		if embs[h], err = embedded(stack.cat, name); err != nil {
			return nil, err
		}
	}
	refs, err := classifyAll(context.Background(), embs, in.leads)
	if err != nil {
		return nil, err
	}

	// phase runs the closed loop for d and reports what it completed.
	type phaseOut struct {
		ok, samples, bytes int64
		lat                []float64
		done               []float64 // completion times of the ok requests, s into the phase
		wall               float64
		cpu                time.Duration
	}
	var mu sync.Mutex
	phase := func(d time.Duration, first []int) phaseOut {
		var out phaseOut
		cpu0 := cpuTime()
		start := time.Now()
		deadline := start.Add(d)
		var wg sync.WaitGroup
		for c, client := range stack.clients {
			wg.Add(1)
			go func(c int, client *http.Client) {
				defer wg.Done()
				var lat, done []float64
				var ok, smp, byt int64
				for n := first[c]; time.Now().Before(deadline); n++ {
					req, rec, head, size, err := in.request(stack.srv.URL, c, n, nproc)
					if err != nil {
						panic(err) // the URL is the server's own
					}
					t0 := time.Now()
					status, body, err := do(client, req)
					elapsed := time.Since(t0)
					var msg string
					if err == nil && status == http.StatusOK {
						msg = checkClassify(body, head, refs[rec][head])
					}
					mu.Lock()
					o.attempted++
					switch {
					case err != nil:
						o.fail("transport", "request %d/%d: %v", c, n, err)
					case status != http.StatusOK:
						code := codeOf(body)
						if code == "" {
							code = fmt.Sprintf("status_%d", status)
						}
						o.fail(code, "request %d/%d: %d %s", c, n, status, trimLine(body))
					case msg != "":
						o.mismatch("record %d, %s head, binary=%v: %s", rec, heads[head], n%2 == 0, msg)
					default:
						ok++
						smp += int64(len(in.leads[rec]))
						lat = append(lat, float64(elapsed)/1e6)
						done = append(done, time.Since(start).Seconds())
					}
					mu.Unlock()
					byt += int64(size)
					first[c] = n + 1
				}
				mu.Lock()
				out.ok += ok
				out.samples += smp
				out.bytes += byt
				out.lat = append(out.lat, lat...)
				out.done = append(out.done, done...)
				mu.Unlock()
			}(c, client)
		}
		wg.Wait()
		out.wall = time.Since(start).Seconds()
		out.cpu = cpuTime() - cpu0
		return out
	}

	T := time.Duration(r.seconds * float64(time.Second))
	next := make([]int, nproc)
	for c := range next {
		next[c] = classifyWarm
	}
	var untraced phaseOut
	if r.trace {
		untraced = phase(T/4, next)
		tracing.Store(true)
		T -= T / 4
	}
	res := phase(T, next)
	tracing.Store(false)
	heap := liveHeapMB()

	rps := windowRate(res.done, res.wall)
	p50 := windowMedian(res.done, res.lat, res.wall)
	o.metrics["live_heap_mb"] = heap
	o.metrics["cpu_ns_per_sample"] = float64(res.cpu) / float64(max(1, res.samples))
	o.metrics["goodput_per_s"] = rps
	o.metrics["streams_per_core"] = rps * recordSeconds / float64(nproc)
	o.metrics["latency_p50_ms"] = p50
	o.metrics["ok_frac"] = 1 - float64(o.failed)/float64(max(1, o.attempted))
	o.notef("classify_rps %.2f req/s (%d reference-equal requests in %.2f s, %d clients)", rps, res.ok, res.wall, nproc)
	o.notef("classify_p50_ms %.3f ms (window medians; %.3f over the whole run), p99 %.3f ms over %d requests",
		p50, quantile(append([]float64(nil), res.lat...), 0.5), quantile(res.lat, 0.99), len(res.lat))

	if r.trace {
		batch, err := replayBatch(in.leads, embs, refs)
		if err != nil {
			o.invalid = err.Error()
			return o, nil
		}
		var beats [][]pipeline.BeatResult
		beatCount := 0
		for _, rb := range refs {
			beats = append(beats, rb[0])
			beatCount += len(rb[0])
		}
		m := o.metrics
		m["wire.frame_decode_ns_per_sample"] = frameDecodeNs(in.bin)
		m["wire.json_parse_ns_per_sample"] = jsonParseNs(in.json)
		m["wire.encode_ns_per_beat"] = classifyEncodeNs(heads[0]+"@v1", beats)
		m["wire.uplink_bytes_per_sample"] = float64(res.bytes+untraced.bytes) / float64(res.samples+untraced.samples)
		m["serve.handler_ms_p50"] = quantile(stats.handlerMs.take(), 0.5)
		m["serve.handler_ms_p99"] = quantile(stats.handlerMs.take(), 0.99)
		m["serve.body_wait_ms_p50"] = quantile(stats.bodyMs.take(), 0.5)
		m["serve.write_ms_p50"] = quantile(stats.writeMs.take(), 0.5)
		m["serve.refused"] = float64(stats.refusedTotal())
		m["sigdsp.batch_filter_ns_per_sample"] = batch.filterNs
		m["sigdsp.batch_dwt_ns_per_sample"] = batch.dwtNs
		m["peak.batch_detect_ns_per_sample"] = batch.detectSelfNs
		m["peak.beats_per_ksample"] = 1000 * float64(beatCount) / float64(batch.samples)
		m["core.classify_ns_per_beat"] = batch.classNs[0]
		m["bitemb.classify_ns_per_beat"] = batch.classNs[1]
		m["load.classify_ms_p99"] = quantile(res.lat, 0.99)
		untracedRPS := windowRate(untraced.done, untraced.wall)
		m["trace.overhead_frac"] = 1 - rps/untracedRPS

		// The ledger, per request: at saturation each request costs
		// nproc/rps core-seconds; the stage rows must account for it, and
		// what they leave is the HTTP residual (net/http, the client, GC).
		samplesPerReq := float64(batch.samples) / numRecords
		beatsPerReq := float64(beatCount) / numRecords
		total := float64(nproc) / untracedRPS * 1e3 // ms
		decode := (m["wire.frame_decode_ns_per_sample"] + m["wire.json_parse_ns_per_sample"]) / 2 * samplesPerReq
		front := (batch.filterNs + batch.dwtNs + batch.detectSelfNs) * samplesPerReq
		class := (batch.classNs[0] + batch.classNs[1]) / 2 * beatsPerReq
		encode := m["wire.encode_ns_per_beat"] * beatsPerReq
		stages := (decode + front + class + encode) / 1e6
		m["serve.http_residual_ms"] = total - stages
		m["ledger.residual_frac"] = (total - stages) / total
		if f := (total - stages) / total; f >= -ledgerTolerance && f <= ledgerTolerance {
			m["ledger.within_tolerance"] = 1
		}
		o.notef("ledger (ms per request per core at %.1f req/s): decode %.3f + front-end %.3f + classify %.3f + encode %.3f = %.3f of %.3f; HTTP residual %.3f (%.1f%%, tolerance %.0f%%)",
			untracedRPS, decode/1e6, front/1e6, class/1e6, encode/1e6, stages, total, total-stages, 100*(total-stages)/total, 100*ledgerTolerance)
		o.notef("tracing overhead %.1f%% (traced %.1f vs untraced %.1f req/s)", 100*m["trace.overhead_frac"], rps, untracedRPS)
		n, dropped, err := tr.write(fmt.Sprintf("%s/trace-classify.jsonl", r.traceDir))
		if err != nil {
			return nil, err
		}
		o.notef("trace: %d spans written, %d dropped", n, dropped)
	}
	return o, nil
}
