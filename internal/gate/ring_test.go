package gate

import (
	"fmt"
	"testing"

	"rpbeat/internal/testutil"
)

// keys returns n distinct stream-shaped keys.
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

// owners maps every key to its ring owner.
func owners(r *Ring, keys []string) map[string]string {
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		m, ok := r.LookupFunc(k, nil)
		if !ok {
			panic("empty ring")
		}
		out[k] = m
	}
	return out
}

func TestRingDeterministicAndOrderInsensitive(t *testing.T) {
	keys := testKeys(1000)
	members := testMembers(3)
	a := NewRing(members, 0)
	// Same members in a different insertion order must induce the same
	// ownership: construction sorts, point hashes depend only on the
	// member string.
	b := NewRing([]string{members[2], members[0], members[1], members[0]}, 0)
	oa, ob := owners(a, keys), owners(b, keys)
	for k, m := range oa {
		if ob[k] != m {
			t.Fatalf("key %s: owner %s vs %s across construction orders", k, m, ob[k])
		}
	}
}

func TestRingBalance(t *testing.T) {
	const n = 4
	keys := testKeys(20000)
	r := NewRing(testMembers(n), 0)
	counts := map[string]int{}
	for _, k := range keys {
		m, _ := r.LookupFunc(k, nil)
		counts[m]++
	}
	want := len(keys) / n
	for m, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("member %s owns %d keys, want within [%d, %d] of fair share %d",
				m, c, want/2, want*2, want)
		}
	}
	if len(counts) != n {
		t.Fatalf("only %d of %d members own keys", len(counts), n)
	}
}

// TestRingMinimalMovementRemove is the consistent-hashing contract: removing
// member X moves exactly X's keys and nothing else.
func TestRingMinimalMovementRemove(t *testing.T) {
	keys := testKeys(10000)
	members := testMembers(4)
	before := owners(NewRing(members, 0), keys)
	removed := members[2]
	after := owners(NewRing(append(append([]string{}, members[:2]...), members[3]), 0), keys)

	moved := 0
	for _, k := range keys {
		switch {
		case before[k] != removed:
			if after[k] != before[k] {
				t.Fatalf("key %s moved from surviving member %s to %s on removal of %s",
					k, before[k], after[k], removed)
			}
		default:
			moved++
			if after[k] == removed {
				t.Fatalf("key %s still owned by removed member", k)
			}
		}
	}
	// The removed member's share should be roughly K/N.
	if fair := len(keys) / len(members); moved < fair/2 || moved > fair*2 {
		t.Errorf("removal moved %d keys, want ~%d", moved, fair)
	}
}

// TestRingMinimalMovementAdd: adding a member moves keys only onto it.
func TestRingMinimalMovementAdd(t *testing.T) {
	keys := testKeys(10000)
	members := testMembers(3)
	added := "http://10.0.0.99:8080"
	before := owners(NewRing(members, 0), keys)
	after := owners(NewRing(append(append([]string{}, members...), added), 0), keys)

	moved := 0
	for _, k := range keys {
		if after[k] == before[k] {
			continue
		}
		if after[k] != added {
			t.Fatalf("key %s moved %s -> %s, but only the new member %s may gain keys",
				k, before[k], after[k], added)
		}
		moved++
	}
	if fair := len(keys) / (len(members) + 1); moved < fair/2 || moved > fair*2 {
		t.Errorf("addition moved %d keys, want ~%d", moved, fair)
	}
}

// TestRingLookupFuncSkips: an unusable owner's keys fail over, everyone
// else's stay put — the routing the gateway does around an unhealthy
// backend.
func TestRingLookupFuncSkips(t *testing.T) {
	keys := testKeys(5000)
	members := testMembers(3)
	r := NewRing(members, 0)
	down := members[1]
	usable := func(m string) bool { return m != down }
	for _, k := range keys {
		full, _ := r.LookupFunc(k, nil)
		failover, ok := r.LookupFunc(k, usable)
		if !ok {
			t.Fatalf("key %s: no usable member", k)
		}
		if failover == down {
			t.Fatalf("key %s routed to unusable member", k)
		}
		if full != down && failover != full {
			t.Fatalf("key %s: healthy owner %s but failover routing says %s", k, full, failover)
		}
	}
	if _, ok := r.LookupFunc(keys[0], func(string) bool { return false }); ok {
		t.Fatal("lookup with nothing usable reported ok")
	}
	if _, ok := NewRing(nil, 0).LookupFunc("x", nil); ok {
		t.Fatal("empty ring reported ok")
	}
}

func TestRingLookupZeroAlloc(t *testing.T) {
	r := NewRing(testMembers(5), 0)
	keys := testKeys(64)
	usable := func(m string) bool { return true }
	testutil.AssertZeroAllocN(t, "ring lookup over 64 keys", 1000, func() {
		for _, k := range keys {
			if _, ok := r.LookupFunc(k, usable); !ok {
				t.Fatal("lookup failed")
			}
		}
	})
}

func BenchmarkRingLookup(b *testing.B) {
	r := NewRing(testMembers(16), 0)
	keys := testKeys(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.LookupFunc(keys[i&1023], nil)
	}
}
