package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, measured from outside the
// layer by the benchmark's own wrappers. Spans of one request or stream
// share Req; Parent links a span to the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans one traced run keeps in memory; later spans are
// counted, not kept.
const maxSpans = 300_000

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0      time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// now is the tracer clock in nanoseconds.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// id reserves a span id (for a parent whose children end before it does).
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a span under a reserved id (0 assigns one).
func (t *tracer) add(id, parent int64, layer, name, req string, start, end int64) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Req: req, Start: start, End: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// write dumps the spans as JSON lines and reports how many it wrote.
func (t *tracer) write(path string) (int, int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return 0, 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	return len(t.spans), t.dropped, f.Close()
}

// httpStats aggregates one HTTP layer's traced data-path requests.
type httpStats struct {
	handlerMs samples // handler span
	bodyMs    samples // time blocked in request-body reads, per request
	writeMs   samples // time in Write + Flush, per request
	mu        sync.Mutex
	refused   map[string]int64 // non-2xx responses by typed code
}

func newHTTPStats() *httpStats { return &httpStats{refused: map[string]int64{}} }

func (s *httpStats) refusedTotal() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int64(0)
	for _, v := range s.refused {
		n += v
	}
	return n
}

// traced is the benchmark middleware around a serve or gate handler: a span
// around the handler, the request body wrapped to time blocking reads, the
// response writer wrapped to time writes and flushes.
func traced(layer string, tr *tracer, st *httpStats, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := tr.id()
		req := r.Header.Get("X-Stream-Id")
		if req == "" {
			req = layer + "-" + strconv.FormatInt(id, 10)
		}
		start := tr.now()
		body := &timedBody{ReadCloser: r.Body, tr: tr, parent: id, layer: layer, req: req}
		r.Body = body
		tw := &timedWriter{ResponseWriter: w, tr: tr, parent: id, layer: layer, req: req}
		next.ServeHTTP(tw, r)
		end := tr.now()
		tr.add(id, 0, layer, "handler", req, start, end)
		if r.URL.Path != "/v1/stream" && r.URL.Path != "/v1/classify" {
			return // health and catalog probes: spans only
		}
		bodyNs, writeNs := body.ns.Load(), tw.ns.Load()
		st.handlerMs.add(ms(float64(end - start)))
		st.bodyMs.add(ms(float64(bodyNs)))
		st.writeMs.add(ms(float64(writeNs)))
		if tw.status >= 300 {
			code := codeOf(tw.errBody)
			if code == "" {
				code = "status_" + strconv.Itoa(tw.status)
			}
			st.mu.Lock()
			st.refused[code]++
			st.mu.Unlock()
		}
	})
}

// timedBody times every Read of a request body.
type timedBody struct {
	io.ReadCloser
	tr     *tracer
	parent int64
	layer  string
	req    string
	ns     atomic.Int64
}

func (b *timedBody) Read(p []byte) (int, error) {
	start := b.tr.now()
	n, err := b.ReadCloser.Read(p)
	end := b.tr.now()
	b.ns.Add(end - start)
	b.tr.add(0, b.parent, b.layer, "body_read", b.req, start, end)
	return n, err
}

// timedWriter times Write and Flush and keeps the status and the start of
// an error body. Unwrap lets http.ResponseController reach the connection
// for full duplex and deadlines.
type timedWriter struct {
	http.ResponseWriter
	tr      *tracer
	parent  int64
	layer   string
	req     string
	status  int
	errBody []byte
	ns      atomic.Int64
}

func (w *timedWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *timedWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.status >= 300 && len(w.errBody) < 512 {
		w.errBody = append(w.errBody, p[:min(len(p), 512)]...)
	}
	start := w.tr.now()
	n, err := w.ResponseWriter.Write(p)
	end := w.tr.now()
	w.ns.Add(end - start)
	w.tr.add(0, w.parent, w.layer, "write", w.req, start, end)
	return n, err
}

func (w *timedWriter) Flush() {
	start := w.tr.now()
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	end := w.tr.now()
	w.ns.Add(end - start)
	w.tr.add(0, w.parent, w.layer, "flush", w.req, start, end)
}

func (w *timedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
