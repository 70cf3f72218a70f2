// Package faultinject is a deterministic, seed-driven fault layer for
// exercising the serving tier's failure paths. Faults are byte-positioned —
// "kill this connection after 4096 bytes", "tear this frame at byte 10" — so
// a failure scenario reproduces exactly from its seed, and a chaos run that
// catches a failover bug can be replayed byte for byte.
//
// The wrappers are orthogonal to what they wrap: NewReader and NewWriter
// fault a single byte stream, and Transport faults the bodies of HTTP round
// trips. Schedules come either from explicit Fault values or from a Plan, a
// splitmix64 generator keyed by seed and unit name, so independent
// components (a load generator here, a gateway test there) derive the same
// faults from the same seed without coordinating.
package faultinject

import (
	"errors"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// Kind classifies a fault by what it does to the byte stream.
type Kind uint8

const (
	// KillAfterBytes ends the stream with ErrInjected once AtByte bytes have
	// flowed — the abrupt process-death / network-partition shape.
	KillAfterBytes Kind = iota + 1
	// TornFrame is KillAfterBytes aimed mid-frame: the caller positions
	// AtByte inside a wire frame so the victim sees a truncated header or
	// payload rather than a clean record boundary.
	TornFrame
	// LatencySpike stalls the stream once, for Delay, when it reaches
	// AtByte, then lets it proceed untouched.
	LatencySpike
	// ConnReset fails the very next operation, delivering nothing — the
	// RST-on-accept shape.
	ConnReset
	// SlowLoris throttles the stream from AtByte on: every operation moves
	// at most slowLorisChunk bytes and pays Delay first.
	SlowLoris
)

// slowLorisChunk is the per-operation byte cap of a tripped SlowLoris fault.
const slowLorisChunk = 16

func (k Kind) String() string {
	switch k {
	case KillAfterBytes:
		return "kill_after_bytes"
	case TornFrame:
		return "torn_frame"
	case LatencySpike:
		return "latency_spike"
	case ConnReset:
		return "conn_reset"
	case SlowLoris:
		return "slow_loris"
	default:
		return "unknown"
	}
}

// Fault is one scheduled fault on a byte stream.
type Fault struct {
	Kind   Kind
	AtByte int64         // stream offset that arms the fault
	Delay  time.Duration // LatencySpike stall, or SlowLoris per-op pacing
}

// ErrInjected is the error every killing fault surfaces.
var ErrInjected = errors.New("faultinject: injected fault")

// Plan derives deterministic fault schedules: the same (Seed, unit) pair
// always yields the same Fault. Unit names are caller-chosen — a stream ID, a
// connection ordinal — and partition the seed's randomness.
type Plan struct {
	Seed     uint64
	MaxByte  int64         // exclusive AtByte bound; default 256 KiB
	MaxDelay time.Duration // exclusive Delay bound; default 40ms
}

// Pick derives the fault for unit, drawing the kind uniformly from kinds
// (all five when none are given).
func (p Plan) Pick(unit string, kinds ...Kind) Fault {
	if len(kinds) == 0 {
		kinds = []Kind{KillAfterBytes, TornFrame, LatencySpike, ConnReset, SlowLoris}
	}
	maxByte := p.MaxByte
	if maxByte <= 0 {
		maxByte = 256 << 10
	}
	maxDelay := p.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 40 * time.Millisecond
	}
	// FNV-1a folds the unit name into the seed; splitmix64 whitens it into
	// independent draws.
	h := p.Seed ^ 0xcbf29ce484222325
	for i := 0; i < len(unit); i++ {
		h = (h ^ uint64(unit[i])) * 0x100000001b3
	}
	f := Fault{Kind: kinds[splitmix(&h)%uint64(len(kinds))]}
	f.AtByte = int64(splitmix(&h) % uint64(maxByte))
	f.Delay = time.Duration(splitmix(&h) % uint64(maxDelay))
	if f.Delay <= 0 {
		f.Delay = time.Millisecond
	}
	return f
}

func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	x := *s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// injector is the fault schedule engine shared by the reader and writer
// wrappers: it meters byte positions and decides, before each operation, how
// many bytes may flow and whether the stream dies here.
type injector struct {
	faults []Fault
	fired  []bool // LatencySpike one-shots
	pos    int64
	dead   bool
}

func newInjector(faults []Fault) injector {
	return injector{faults: faults, fired: make([]bool, len(faults))}
}

// gate runs the schedule ahead of an operation wanting up to want bytes: it
// sleeps out due latency faults and returns the byte budget, or ErrInjected
// once a killing fault has tripped.
func (in *injector) gate(want int) (int, error) {
	if in.dead {
		return 0, ErrInjected
	}
	allow := want
	for i := range in.faults {
		f := &in.faults[i]
		switch f.Kind {
		case ConnReset:
			in.dead = true
			return 0, ErrInjected
		case KillAfterBytes, TornFrame:
			left := f.AtByte - in.pos
			if left <= 0 {
				in.dead = true
				return 0, ErrInjected
			}
			if int64(allow) > left {
				allow = int(left)
			}
		case LatencySpike:
			if !in.fired[i] && in.pos >= f.AtByte {
				in.fired[i] = true
				time.Sleep(f.Delay)
			}
		case SlowLoris:
			if in.pos >= f.AtByte {
				if allow > slowLorisChunk {
					allow = slowLorisChunk
				}
				time.Sleep(f.Delay)
			}
		}
	}
	return allow, nil
}

// Reader applies a fault schedule to reads. Close passes through to the
// wrapped reader when it has one, so a Reader can stand in for a request or
// response body.
type Reader struct {
	r  io.Reader
	in injector
}

func NewReader(r io.Reader, faults ...Fault) *Reader {
	return &Reader{r: r, in: newInjector(faults)}
}

func (r *Reader) Read(p []byte) (int, error) {
	allow, err := r.in.gate(len(p))
	if err != nil {
		return 0, err
	}
	if allow < len(p) {
		p = p[:allow]
	}
	n, err := r.r.Read(p)
	r.in.pos += int64(n)
	return n, err
}

func (r *Reader) Close() error {
	if c, ok := r.r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Writer applies a fault schedule to writes. A killing fault surfaces as a
// short write with ErrInjected.
type Writer struct {
	w  io.Writer
	in injector
}

func NewWriter(w io.Writer, faults ...Fault) *Writer {
	return &Writer{w: w, in: newInjector(faults)}
}

func (w *Writer) Write(p []byte) (int, error) {
	written := 0
	for len(p) > 0 {
		allow, err := w.in.gate(len(p))
		if err != nil {
			return written, err
		}
		n, err := w.w.Write(p[:allow])
		w.in.pos += int64(n)
		written += n
		if err != nil {
			return written, err
		}
		p = p[n:]
	}
	return written, nil
}

// Transport injects faults into HTTP round trips: Uplink faults apply to the
// request body, Downlink faults to the response body, each round trip getting
// a fresh schedule. Times bounds how many round trips are faulted (0 = all) —
// a retrying caller whose first attempt is killed then sees clean attempts,
// which is exactly the failover scenario.
//
//rpvet:allow deadcode -- test harness: TestGateFailoverResyncBitIdentity kills backend legs through it
type Transport struct {
	Base     http.RoundTripper
	Uplink   []Fault
	Downlink []Fault
	Times    int32

	count atomic.Int32
}

func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if t.Times > 0 && t.count.Add(1) > t.Times {
		return base.RoundTrip(req)
	}
	if len(t.Uplink) > 0 && req.Body != nil {
		req = req.Clone(req.Context())
		req.Body = NewReader(req.Body, t.Uplink...)
	}
	resp, err := base.RoundTrip(req)
	if err != nil || len(t.Downlink) == 0 {
		return resp, err
	}
	resp.Body = NewReader(resp.Body, t.Downlink...)
	return resp, nil
}
