// Package overload is the server's admission control: it decides, before any
// work is done, whether a request may consume capacity. Three mechanisms
// compose (see DESIGN.md, "Overload control"):
//
//   - A Gate bounds the two request classes separately — concurrently open
//     streams and in-flight batch requests — and sheds on a ladder: when the
//     stream slots run out, new streams are refused with the typed
//     server_overloaded error while batch requests stay admitted (a stream
//     client can degrade to posting whole records); only when the batch
//     bound is also hit does the server refuse data-path work entirely.
//     Admission is a single atomic CAS per request, so the gate costs
//     nothing measurable on the hot paths.
//
//   - A Limiter meters request starts per tenant with a token bucket, so one
//     chatty client cannot monopolize admission while others starve. The
//     tenant table is bounded: at capacity, the least recently active bucket
//     is evicted (a tenant that stopped sending stops costing memory).
//
//   - Every refusal is counted per class; the counters feed /healthz and the
//     fleet benchmark's shed columns, so "the server shed load" is a number,
//     not an anecdote.
//
// Everything here refuses work with typed *apierr.Error values; nothing in
// this package ever blocks, queues or drops silently.
package overload

import (
	"sync"
	"sync/atomic"
	"time"

	"rpbeat/internal/apierr"
)

// GateConfig bounds the Gate. Zero values mean "unlimited" for each bound.
type GateConfig struct {
	// MaxStreams bounds concurrently open /v1/stream requests.
	MaxStreams int
	// MaxBatch bounds in-flight /v1/classify requests.
	MaxBatch int
}

// Gate is the two-class admission gate. The zero value admits everything;
// construct with NewGate to set bounds.
type Gate struct {
	maxStreams int64
	maxBatch   int64

	streams atomic.Int64 // open streams
	batch   atomic.Int64 // in-flight batch requests

	shedStreams atomic.Int64 // refusals, cumulative
	shedBatch   atomic.Int64
}

// NewGate builds a gate with the configured bounds.
func NewGate(cfg GateConfig) *Gate {
	return &Gate{maxStreams: int64(cfg.MaxStreams), maxBatch: int64(cfg.MaxBatch)}
}

// acquire CAS-increments n unless it is at bound (bound<=0 is unlimited).
func acquire(n *atomic.Int64, bound int64) bool {
	for {
		cur := n.Load()
		if bound > 0 && cur >= bound {
			return false
		}
		if n.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// AcquireStream admits one stream, or refuses it with the typed
// server_overloaded error. Callers that got nil must ReleaseStream exactly
// once when the stream ends.
func (g *Gate) AcquireStream() error {
	if g == nil || acquire(&g.streams, g.maxStreams) {
		return nil
	}
	g.shedStreams.Add(1)
	return apierr.New(apierr.CodeServerOverloaded,
		"stream slots exhausted (%d open); degraded to batch-only — retry, or POST whole records to /v1/classify",
		g.maxStreams)
}

// ReleaseStream returns a stream slot.
func (g *Gate) ReleaseStream() {
	if g != nil {
		g.streams.Add(-1)
	}
}

// AcquireBatch admits one batch request, or refuses it with the typed
// server_overloaded error. Callers that got nil must ReleaseBatch exactly
// once when the request finishes.
func (g *Gate) AcquireBatch() error {
	if g == nil || acquire(&g.batch, g.maxBatch) {
		return nil
	}
	g.shedBatch.Add(1)
	return apierr.New(apierr.CodeServerOverloaded,
		"server at capacity (%d batch requests in flight); back off and retry", g.maxBatch)
}

// ReleaseBatch returns a batch slot.
func (g *Gate) ReleaseBatch() {
	if g != nil {
		g.batch.Add(-1)
	}
}

// Stats is a point-in-time view of the gate for introspection surfaces.
type Stats struct {
	OpenStreams   int64 `json:"openStreams"`
	InFlightBatch int64 `json:"inFlightBatch"`
	ShedStreams   int64 `json:"shedStreams"` // cumulative refusals
	ShedBatch     int64 `json:"shedBatch"`
}

// Stats snapshots the gate's counters (each individually atomic; the set is
// not one consistent cut, which introspection does not need).
func (g *Gate) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	return Stats{
		OpenStreams:   g.streams.Load(),
		InFlightBatch: g.batch.Load(),
		ShedStreams:   g.shedStreams.Load(),
		ShedBatch:     g.shedBatch.Load(),
	}
}

// LimiterConfig sizes a per-tenant rate limiter.
type LimiterConfig struct {
	// Rate is the sustained request budget per tenant, in requests/second.
	// Zero or negative disables limiting (Allow always nil).
	Rate float64
	// Burst is the bucket depth — how many requests a tenant may start
	// back-to-back after an idle period. Default max(1, ceil(Rate)).
	Burst float64
	// MaxTenants bounds the tenant table; at capacity the least recently
	// active tenant's bucket is evicted. Default 4096.
	MaxTenants int
	// now overrides the clock in tests.
	now func() time.Time
}

// bucket is one tenant's token bucket.
type bucket struct {
	tokens float64
	last   time.Time // last refill
	touch  int64     // LRU tick of the last Allow
}

// Limiter meters request starts per tenant. The zero value is not usable;
// construct with NewLimiter.
type Limiter struct {
	rate       float64
	burst      float64
	maxTenants int
	now        func() time.Time

	mu      sync.Mutex
	tenants map[string]*bucket
	tick    int64
}

// NewLimiter builds a limiter; cfg.Rate <= 0 yields a disabled limiter that
// admits everything.
func NewLimiter(cfg LimiterConfig) *Limiter {
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 4096
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Limiter{
		rate: cfg.Rate, burst: cfg.Burst, maxTenants: cfg.MaxTenants,
		now: cfg.now, tenants: make(map[string]*bucket),
	}
}

// refusal is built once: the limiter's rejection is always the same shape.
var refusal = apierr.New(apierr.CodeRateLimited,
	"tenant request rate exceeded; retry after the Retry-After delay")

// Allow spends one token from the tenant's bucket, or refuses with the typed
// rate_limited error. Unknown tenants start with a full bucket.
func (l *Limiter) Allow(tenant string) error {
	if l == nil || l.rate <= 0 {
		return nil
	}
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tick++
	b := l.tenants[tenant]
	if b == nil {
		if len(l.tenants) >= l.maxTenants {
			l.evictLocked()
		}
		b = &bucket{tokens: l.burst, last: now}
		l.tenants[tenant] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	b.touch = l.tick
	if b.tokens < 1 {
		return refusal
	}
	b.tokens--
	return nil
}

// evictLocked drops the least recently active tenant. Linear scan: eviction
// only runs when a *new* tenant arrives with the table full, so its cost is
// bounded by tenant churn, not by request rate.
func (l *Limiter) evictLocked() {
	var victim string
	oldest := int64(1<<63 - 1)
	for name, b := range l.tenants {
		if b.touch < oldest {
			oldest, victim = b.touch, name
		}
	}
	delete(l.tenants, victim)
}
