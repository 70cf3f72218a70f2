package overload

import (
	"sync"
	"testing"
	"time"

	"rpbeat/internal/apierr"
)

func TestGateStreamLadder(t *testing.T) {
	g := NewGate(GateConfig{MaxStreams: 2, MaxBatch: 3})

	// Fill the stream slots.
	for i := 0; i < 2; i++ {
		if err := g.AcquireStream(); err != nil {
			t.Fatalf("stream %d refused below bound: %v", i, err)
		}
	}
	// The ladder's first rung: streams shed, batch still admitted.
	err := g.AcquireStream()
	if !apierr.IsCode(err, apierr.CodeServerOverloaded) {
		t.Fatalf("stream beyond bound: err = %v, want server_overloaded", err)
	}
	if err := g.AcquireBatch(); err != nil {
		t.Fatalf("batch refused while only streams are saturated: %v", err)
	}
	g.ReleaseBatch()

	// Second rung: batch slots full too.
	for i := 0; i < 3; i++ {
		if err := g.AcquireBatch(); err != nil {
			t.Fatalf("batch %d refused below bound: %v", i, err)
		}
	}
	if err := g.AcquireBatch(); !apierr.IsCode(err, apierr.CodeServerOverloaded) {
		t.Fatalf("batch beyond bound: err = %v, want server_overloaded", err)
	}

	st := g.Stats()
	if st.OpenStreams != 2 || st.InFlightBatch != 3 {
		t.Fatalf("stats = %+v, want 2 open streams, 3 in-flight batch", st)
	}
	if st.ShedStreams != 1 || st.ShedBatch != 1 {
		t.Fatalf("shed counters = %+v, want 1 and 1", st)
	}

	// Releases reopen admission.
	g.ReleaseStream()
	if err := g.AcquireStream(); err != nil {
		t.Fatalf("stream refused after release: %v", err)
	}
}

func TestGateUnlimitedAndNil(t *testing.T) {
	g := NewGate(GateConfig{}) // zero bounds: unlimited
	for i := 0; i < 100; i++ {
		if err := g.AcquireStream(); err != nil {
			t.Fatal(err)
		}
		if err := g.AcquireBatch(); err != nil {
			t.Fatal(err)
		}
	}
	var nilGate *Gate
	if err := nilGate.AcquireStream(); err != nil {
		t.Fatalf("nil gate refused a stream: %v", err)
	}
	nilGate.ReleaseStream()
	if s := nilGate.Stats(); s != (Stats{}) {
		t.Fatalf("nil gate stats = %+v", s)
	}
}

func TestGateConcurrentNeverExceedsBound(t *testing.T) {
	const bound = 8
	g := NewGate(GateConfig{MaxStreams: bound})
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if g.AcquireStream() == nil {
					if n := g.Stats().OpenStreams; n > bound {
						t.Errorf("open streams %d exceeds bound %d", n, bound)
					}
					g.ReleaseStream()
				}
			}
		}()
	}
	wg.Wait()
	if n := g.Stats().OpenStreams; n != 0 {
		t.Fatalf("open streams after all released: %d", n)
	}
}

// fakeClock steps time manually for deterministic bucket math.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestLimiterRefillMath(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := NewLimiter(LimiterConfig{Rate: 10, Burst: 3, now: clk.now})

	// A fresh tenant has a full burst.
	for i := 0; i < 3; i++ {
		if err := l.Allow("a"); err != nil {
			t.Fatalf("burst request %d refused: %v", i, err)
		}
	}
	if err := l.Allow("a"); !apierr.IsCode(err, apierr.CodeRateLimited) {
		t.Fatalf("empty bucket: err = %v, want rate_limited", err)
	}

	// 100 ms at 10 req/s refills exactly one token.
	clk.advance(100 * time.Millisecond)
	if err := l.Allow("a"); err != nil {
		t.Fatalf("refilled token refused: %v", err)
	}
	if err := l.Allow("a"); !apierr.IsCode(err, apierr.CodeRateLimited) {
		t.Fatalf("second request on one refilled token: err = %v, want rate_limited", err)
	}

	// The bucket caps at burst, however long the idle period.
	clk.advance(time.Hour)
	for i := 0; i < 3; i++ {
		if err := l.Allow("a"); err != nil {
			t.Fatalf("post-idle request %d refused: %v", i, err)
		}
	}
	if err := l.Allow("a"); !apierr.IsCode(err, apierr.CodeRateLimited) {
		t.Fatal("bucket exceeded burst after idle")
	}
}

func TestLimiterTenantsIndependent(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 1, now: clk.now})
	if err := l.Allow("a"); err != nil {
		t.Fatal(err)
	}
	if err := l.Allow("a"); !apierr.IsCode(err, apierr.CodeRateLimited) {
		t.Fatalf("tenant a second request: %v", err)
	}
	// Tenant b is unaffected by a's exhaustion.
	if err := l.Allow("b"); err != nil {
		t.Fatalf("tenant b refused by a's bucket: %v", err)
	}
}

func TestLimiterEvictsLeastRecentTenant(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 1, MaxTenants: 2, now: clk.now})

	if err := l.Allow("old"); err != nil {
		t.Fatal(err)
	}
	if err := l.Allow("warm"); err != nil {
		t.Fatal(err)
	}
	// "warm" stays active (refused counts as activity for LRU purposes).
	l.Allow("warm")
	// A third tenant evicts "old", the least recently active.
	if err := l.Allow("new"); err != nil {
		t.Fatal(err)
	}
	if n := len(l.tenants); n != 2 {
		t.Fatalf("tenant table size = %d, want 2", n)
	}
	// "new" was admitted with a full burst while "warm" kept its drained
	// bucket — the eviction hit the least recently active tenant, not an
	// active one.
	if err := l.Allow("warm"); !apierr.IsCode(err, apierr.CodeRateLimited) {
		t.Fatalf("warm tenant's drained bucket did not survive: %v", err)
	}
	// The evicted tenant returns as fresh, with a full burst again.
	if err := l.Allow("old"); err != nil {
		t.Fatalf("evicted tenant did not restart fresh: %v", err)
	}
	if n := len(l.tenants); n != 2 {
		t.Fatalf("tenant table size = %d, want 2 (bounded)", n)
	}
}

func TestLimiterDisabledAndNil(t *testing.T) {
	l := NewLimiter(LimiterConfig{}) // Rate 0: disabled
	for i := 0; i < 1000; i++ {
		if err := l.Allow("t"); err != nil {
			t.Fatal(err)
		}
	}
	var nilL *Limiter
	if err := nilL.Allow("t"); err != nil {
		t.Fatal(err)
	}
}

func TestLimiterConcurrentBudget(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 100, now: clk.now})
	var wg sync.WaitGroup
	granted := make([]int, 8)
	for i := range granted {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if l.Allow("shared") == nil {
					granted[i]++
				}
			}
		}(i)
	}
	wg.Wait()
	total := 0
	for _, n := range granted {
		total += n
	}
	// The clock never advances: exactly the burst may be granted, no matter
	// the interleaving.
	if total != 100 {
		t.Fatalf("granted %d requests from a burst-100 bucket with a frozen clock", total)
	}
}

func TestRefusalsAreRetryable(t *testing.T) {
	g := NewGate(GateConfig{MaxStreams: 1, MaxBatch: 1})
	if err := g.AcquireStream(); err != nil {
		t.Fatal(err)
	}
	if err := g.AcquireBatch(); err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 1, now: clk.now})
	l.Allow("t")
	for i, err := range []error{g.AcquireStream(), g.AcquireBatch(), l.Allow("t")} {
		ae := apierr.From(err)
		if ae == nil || !ae.Retryable() {
			t.Fatalf("refusal %d (%v) is not marked retryable", i, err)
		}
		if s := ae.HTTPStatus(); s != 503 && s != 429 {
			t.Fatalf("refusal %d status = %d", i, s)
		}
	}
}
