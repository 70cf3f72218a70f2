package gate

// Routing conformance for keyed requests: the contracts pick keeps by
// rendezvous hashing. The TestRing* tests keep the names they had under the
// hash ring that held the same contracts before, so each contract keeps its
// test ID.

import (
	"fmt"
	"testing"

	"rpbeat/internal/testutil"
)

// testKeys returns n distinct stream-shaped keys.
func testKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("patient-%016x", mix64(uint64(i+1)))
	}
	return out
}

func testMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

// testGateway builds a gateway over urls with its health loop off, so every
// backend stays routable until a test says otherwise.
func testGateway(t testing.TB, urls []string) *Gateway {
	t.Helper()
	g, err := New(Config{Backends: urls, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// owners maps every key to the URL pick routes it to, skipping skip.
func owners(t testing.TB, g *Gateway, keys []string, skip *backend) map[string]string {
	t.Helper()
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		b := g.pick(k, skip)
		if b == nil {
			t.Fatalf("key %s: no routable backend", k)
		}
		out[k] = b.url
	}
	return out
}

// TestRingDeterministicAndOrderInsensitive: the same backends in another
// -backend order own every key the same way.
func TestRingDeterministicAndOrderInsensitive(t *testing.T) {
	keys := testKeys(1000)
	members := testMembers(3)
	oa := owners(t, testGateway(t, members), keys, nil)
	ob := owners(t, testGateway(t, []string{members[2], members[0], members[1]}), keys, nil)
	for k, m := range oa {
		if ob[k] != m {
			t.Fatalf("key %s: owner %s vs %s across -backend orders", k, m, ob[k])
		}
	}
}

// TestRingBalance: every backend owns within 10% of its fair share of
// 20,000 keys, at 4 backends and at 16.
func TestRingBalance(t *testing.T) {
	keys := testKeys(20000)
	for _, n := range []int{4, 16} {
		counts := map[string]int{}
		for _, m := range owners(t, testGateway(t, testMembers(n)), keys, nil) {
			counts[m]++
		}
		want := len(keys) / n
		for _, m := range testMembers(n) {
			if c := counts[m]; c < want*9/10 || c > want*11/10 {
				t.Errorf("%d backends: %s owns %d keys, want within 10%% of fair share %d", n, m, c, want)
			}
		}
	}
}

// TestRingMinimalMovementRemove: removing backend X moves exactly X's keys
// and nothing else.
func TestRingMinimalMovementRemove(t *testing.T) {
	keys := testKeys(10000)
	members := testMembers(4)
	before := owners(t, testGateway(t, members), keys, nil)
	removed := members[2]
	after := owners(t, testGateway(t, append(append([]string{}, members[:2]...), members[3])), keys, nil)

	moved := 0
	for _, k := range keys {
		switch {
		case before[k] != removed:
			if after[k] != before[k] {
				t.Fatalf("key %s moved from surviving backend %s to %s on removal of %s",
					k, before[k], after[k], removed)
			}
		default:
			moved++
		}
	}
	if fair := len(keys) / len(members); moved < fair/2 || moved > fair*2 {
		t.Errorf("removal moved %d keys, want ~%d", moved, fair)
	}
}

// TestRingMinimalMovementAdd: adding a backend moves keys only onto it.
func TestRingMinimalMovementAdd(t *testing.T) {
	keys := testKeys(10000)
	members := testMembers(3)
	added := "http://10.0.0.99:8080"
	before := owners(t, testGateway(t, members), keys, nil)
	after := owners(t, testGateway(t, append(append([]string{}, members...), added)), keys, nil)

	moved := 0
	for _, k := range keys {
		if after[k] == before[k] {
			continue
		}
		if after[k] != added {
			t.Fatalf("key %s moved %s -> %s, but only the new backend %s may gain keys",
				k, before[k], after[k], added)
		}
		moved++
	}
	if fair := len(keys) / (len(members) + 1); moved < fair/2 || moved > fair*2 {
		t.Errorf("addition moved %d keys, want ~%d", moved, fair)
	}
}

// TestRingLookupFuncSkips: an unroutable owner's keys move and every other
// key stays — the routing the gateway does around an unhealthy backend, and
// on failover, where the lost backend is skipped. With nothing routable,
// pick returns no backend, keyed or not.
func TestRingLookupFuncSkips(t *testing.T) {
	keys := testKeys(5000)
	g := testGateway(t, testMembers(3))
	down := g.members[1]
	full := owners(t, g, keys, nil)
	skipped := owners(t, g, keys, down)
	down.healthy.Store(false)
	unroutable := owners(t, g, keys, nil)
	for _, k := range keys {
		if unroutable[k] == down.url {
			t.Fatalf("key %s routed to unroutable backend", k)
		}
		if full[k] != down.url && unroutable[k] != full[k] {
			t.Fatalf("key %s: owner %s is routable but pick says %s", k, full[k], unroutable[k])
		}
		if skipped[k] != unroutable[k] {
			t.Fatalf("key %s: skipping %s routes to %s, its being unroutable to %s", k, down.url, skipped[k], unroutable[k])
		}
	}
	for _, b := range g.members {
		b.draining.Store(true)
	}
	if b := g.pick(keys[0], nil); b != nil {
		t.Fatalf("keyed pick with nothing routable returned %s", b.url)
	}
	if b := g.pick("", nil); b != nil {
		t.Fatalf("keyless pick with nothing routable returned %s", b.url)
	}
}

// TestPickSpreadsLostBackendKeys: a lost backend's keys do not pile onto
// one neighbour; every survivor takes within 20% of an even share of them.
func TestPickSpreadsLostBackendKeys(t *testing.T) {
	keys := testKeys(20000)
	g := testGateway(t, testMembers(4))
	lost := g.members[2]
	landed := map[string]int{}
	total := 0
	for k, m := range owners(t, g, keys, nil) {
		if m == lost.url {
			landed[g.pick(k, lost).url]++
			total++
		}
	}
	share := total / (len(g.members) - 1)
	for _, b := range g.members {
		if b == lost {
			continue
		}
		if c := landed[b.url]; c < share*8/10 || c > share*12/10 {
			t.Errorf("survivor %s took %d of the lost backend's %d keys, want within 20%% of %d", b.url, c, total, share)
		}
	}
}

func TestRingLookupZeroAlloc(t *testing.T) {
	g := testGateway(t, testMembers(5))
	keys := testKeys(64)
	testutil.AssertZeroAllocN(t, "pick over 64 keys", 1000, func() {
		for _, k := range keys {
			if g.pick(k, nil) == nil {
				t.Fatal("pick found no backend")
			}
		}
	})
}

func BenchmarkPick(b *testing.B) {
	keys := testKeys(1024)
	for _, n := range []int{3, 16} {
		g := testGateway(b, testMembers(n))
		b.Run(fmt.Sprintf("backends=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.pick(keys[i&1023], nil)
			}
		})
	}
}
