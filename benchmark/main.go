// Command benchmark is rpbeat's end-to-end benchmark. It drives the serving
// stack built from this tree (pipeline.Engine, serve.NewHandler and
// gate.New, at the defaults cmd/rpserve and cmd/rpgate use) with one of
// three workloads, checks every output against a reference computed outside
// the timed phase, and prints one JSON result line: the end-to-end metrics,
// or with -trace 1 the per-layer ledger of a separate traced run.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash benchmark/run.sh --workload fleet --seed 1 --seconds 35 --trace 0
//
// WORKLOADS.md records why each workload exists, its loop and rates, and
// which end-to-end metric each per-layer row should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec names one metric; BENCHMARK.json lists the same tables.
type spec struct {
	Name, Unit, Better string
}

// endToEnd are the metrics every untraced run reports, whatever the
// workload. WORKLOADS.md maps each to the workload-specific figure it carries.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"live_heap_mb", "MB", "lower"},
	{"cpu_ns_per_sample", "ns", "lower"},
	{"goodput_per_s", "1/s", "higher"},
	{"streams_per_core", "streams", "higher"},
	{"latency_p50_ms", "ms", "lower"},
}

// perLayer are the rows every traced run reports. A row a workload does not
// exercise reads 0.
var perLayer = []spec{
	{"wire.frame_decode_ns_per_sample", "ns", "lower"},
	{"wire.json_parse_ns_per_sample", "ns", "lower"},
	{"wire.encode_ns_per_beat", "ns", "lower"},
	{"wire.uplink_bytes_per_sample", "B", "lower"},
	{"serve.handler_ms_p50", "ms", "lower"},
	{"serve.handler_ms_p99", "ms", "lower"},
	{"serve.body_wait_ms_p50", "ms", "lower"},
	{"serve.write_ms_p50", "ms", "lower"},
	{"serve.refused", "count", "lower"},
	{"serve.http_residual_ms", "ms", "lower"},
	{"pipeline.send_ns_p50", "ns", "lower"},
	{"pipeline.send_retries", "count", "lower"},
	{"pipeline.queue_wait_ms_p50", "ms", "lower"},
	{"pipeline.queue_wait_ms_p99", "ms", "lower"},
	{"pipeline.busy_frac", "ratio", "lower"},
	{"pipeline.overhead_ns_per_sample", "ns", "lower"},
	{"pipeline.drain_1w_samples_per_s", "samples/s", "higher"},
	{"pipeline.heap_bytes_per_stream", "B", "lower"},
	{"pipeline.delay_samples", "samples", "lower"},
	{"sigdsp.stream_filter_ns_per_sample", "ns", "lower"},
	{"sigdsp.stream_dwt_ns_per_sample", "ns", "lower"},
	{"sigdsp.batch_filter_ns_per_sample", "ns", "lower"},
	{"sigdsp.batch_dwt_ns_per_sample", "ns", "lower"},
	{"peak.stream_detect_ns_per_sample", "ns", "lower"},
	{"peak.batch_detect_ns_per_sample", "ns", "lower"},
	{"peak.beats_per_ksample", "count", "higher"},
	{"core.classify_ns_per_beat", "ns", "lower"},
	{"bitemb.classify_ns_per_beat", "ns", "lower"},
	{"gate.kills", "count", "higher"},
	{"gate.failovers", "count", "higher"},
	{"gate.transparent_frac", "ratio", "higher"},
	{"gate.reopen_ms_p50", "ms", "lower"},
	{"gate.replay_samples_p50", "samples", "lower"},
	{"gate.replay_ms_p50", "ms", "lower"},
	{"gate.relay_ns_per_kb", "ns", "lower"},
	{"gate.journal_append_ns", "ns", "lower"},
	{"gate.demotions", "count", "lower"},
	{"gate.keepalive_failed", "count", "lower"},
	{"gate.refused", "count", "lower"},
	{"gate.http_residual_ns_per_sample", "ns", "lower"},
	{"load.gen_lag_ms_p50", "ms", "lower"},
	{"load.gen_lag_ms_p99", "ms", "lower"},
	{"load.beat_latency_ms_p50.fleet_0500k", "ms", "lower"},
	{"load.beat_latency_ms_p99.fleet_0500k", "ms", "lower"},
	{"load.beat_latency_ms_p999.fleet_0500k", "ms", "lower"},
	{"load.beat_latency_count.fleet_0500k", "count", "higher"},
	{"load.beat_latency_ms_p50.fleet_1000k", "ms", "lower"},
	{"load.beat_latency_ms_p99.fleet_1000k", "ms", "lower"},
	{"load.beat_latency_ms_p999.fleet_1000k", "ms", "lower"},
	{"load.beat_latency_count.fleet_1000k", "count", "higher"},
	{"load.beat_latency_ms_p50.gateway", "ms", "lower"},
	{"load.beat_latency_ms_p99.gateway", "ms", "lower"},
	{"load.beat_latency_ms_p999.gateway", "ms", "lower"},
	{"load.beat_latency_count.gateway", "count", "higher"},
	{"load.classify_ms_p99", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"ledger.residual_frac", "ratio", "lower"},
	{"ledger.within_tolerance", "count", "higher"},
}

// run is one workload run's configuration.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
}

// outcome is what a workload hands back: the op ledger, the failures by
// code, and the metrics (end-to-end or per-layer, by run mode).
type outcome struct {
	attempted int64
	failed    int64
	failures  map[string]int64 // failed ops by typed code
	invalid   string           // non-empty: the run is not valid (reason)
	metrics   map[string]float64
	report    []string // human-readable lines printed before the result
}

func newOutcome() *outcome {
	return &outcome{failures: map[string]int64{}, metrics: map[string]float64{}}
}

// fail records one failed op under its code and prints it; no failure is
// suppressed.
func (o *outcome) fail(code, format string, args ...any) {
	o.failed++
	o.failures[code]++
	fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", code, fmt.Sprintf(format, args...))
}

// mismatchCode is the failure code of an output that differs from its
// reference; any such failure makes the run incorrect.
const mismatchCode = "reference_mismatch"

// mismatch records one reference mismatch (a failed op) and prints it.
func (o *outcome) mismatch(format string, args ...any) {
	o.fail(mismatchCode, format, args...)
}

func (o *outcome) notef(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*run) (*outcome, error){
	"fleet":    runFleet,
	"classify": runClassify,
	"gateway":  runGateway,
}

// idle keeps the CPUs busy while the workload runs; see spin.go.
var idle *spinner

func main() {
	if len(os.Args) == 3 && os.Args[1] == spinnerArg {
		n, err := strconv.Atoi(os.Args[2])
		if err != nil {
			fatalf("idle spinner: %v", err)
		}
		runSpinner(n)
		return
	}
	var (
		r  run
		tr int
	)
	flag.StringVar(&r.workload, "workload", "", "workload: fleet, classify or gateway")
	flag.Uint64Var(&r.seed, "seed", 1, "workload seed: every input derives from it")
	flag.Float64Var(&r.seconds, "seconds", 35, "measured seconds of the run")
	flag.IntVar(&tr, "trace", 0, "1 = traced run reporting the per-layer ledger, 0 = end-to-end metrics")
	flag.StringVar(&r.traceDir, "trace-dir", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	fn, ok := workloads[r.workload]
	if !ok || flag.NArg() > 0 || r.seconds <= 0 || (tr != 0 && tr != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload fleet|classify|gateway --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	r.trace = tr == 1
	if err := os.MkdirAll(r.traceDir, 0o755); err != nil {
		fatalf("trace dir: %v", err)
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d\n",
		r.workload, r.seed, r.seconds, r.trace, runtime.GOMAXPROCS(0))
	var err error
	if idle, err = startSpinner(runtime.GOMAXPROCS(0)); err != nil {
		fatalf("idle spinner: %v", err)
	}
	o, err := fn(&r)
	idle.stop()
	if err != nil {
		fatalf("%s: %v", r.workload, err)
	}
	for _, line := range o.report {
		fmt.Println(line)
	}
	codes := make([]string, 0, len(o.failures))
	for c := range o.failures {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Printf("failed ops %-22s %d\n", c, o.failures[c])
	}
	fmt.Printf("attempted=%d failed=%d mismatches=%d\n", o.attempted, o.failed, o.failures[mismatchCode])
	fmt.Printf("failed_frac %.6f ratio\n", float64(o.failed)/math.Max(1, float64(o.attempted)))
	if o.invalid != "" {
		fatalf("run invalid: %s", o.invalid)
	}
	if o.attempted < 1 {
		fatalf("no operation attempted")
	}
	table := endToEnd
	if r.trace {
		table = perLayer
	}
	res := result{
		Correct:   o.failures[mismatchCode] == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(table)),
	}
	for _, s := range table {
		v := o.metrics[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fatalf("metric %s is %v", s.Name, v)
		}
		if !r.trace && v <= 0 {
			fatalf("end-to-end metric %s is %v; it must be positive", s.Name, v)
		}
		res.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
		fmt.Printf("%-44s %14.6g %s\n", s.Name, v, s.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	idle.stop()
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and reports the live heap in MB. The
// second collection empties the sync.Pool victim caches the first one
// leaves behind, so pooled buffers of an earlier burst do not count as live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// liveHeapBytes is liveHeapMB in bytes.
func liveHeapBytes() float64 { return liveHeapMB() * (1 << 20) }

// setups is how many times a run builds its stack to time set-up.
const setups = 9

// timeSetup runs build setups times and reports the median duration. All
// but the last result are torn down; the last is returned for the run.
func timeSetup[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		times []float64
		last  T
	)
	for i := 0; i < setups; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setups-1 {
			teardown(v)
		} else {
			last = v
		}
	}
	return last, median(times), nil
}

// codeOf extracts the typed error code from an {"error":{"code":...}} body
// or line, or "" when there is none.
func codeOf(body []byte) string {
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &e) != nil {
		return ""
	}
	return e.Error.Code
}

// trimLine shortens a body for a failure message.
func trimLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 160 {
		s = s[:160] + "…"
	}
	return s
}
