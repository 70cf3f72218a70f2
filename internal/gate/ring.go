// Package gate is the gateway tier: it routes any number of client
// connections onto a pool of rpserve backends, keeping per-stream pipeline
// state correct by stream affinity. The pool is fixed per process. A
// consistent-hash ring maps every stream ID onto one backend; when the
// gateway restarts with a changed -backend list, only the minimal slice of
// the key space moves (the removed backend's keys, or the share a new
// backend takes over), so a fleet-wide reshuffle never happens. The relay
// path copies bytes verbatim in both directions — binary
// application/x-rpbeat-samples uplink, NDJSON downlink — through pooled
// buffers, so a relayed response is byte-identical to the backend's and the
// steady-state per-chunk cost is allocation-free.
//
// The gateway also owns fleet-wide model consistency: POST /v1/models fans
// out to every backend with catalog.Manifest digest verification, and the
// health loop cross-checks each backend's catalog digests against the
// gateway's authoritative view — a backend serving a divergent name@vN is
// refused routing until it converges.
package gate

import "sort"

// Ring is an immutable consistent-hash ring over a backend member set.
// Every member contributes DefaultReplicas virtual points; a key is owned by
// the first point clockwise from the key's hash. Lookups are
// allocation-free.
//
// The gateway builds one ring over its fixed pool in New and never mutates
// it. Its minimal key movement matters across restarts: a gateway started
// with one backend more or less than before moves only that backend's share.
type Ring struct {
	members []string // sorted, so construction order never matters
	points  []ringPoint
}

// ringPoint is one virtual node: a position on the ring and the index of
// the member that owns it.
type ringPoint struct {
	hash   uint64
	member int32
}

// DefaultReplicas is the virtual-node count per member: enough that a
// 3-node pool balances within ~10–20%, cheap enough that building the ring
// stays microseconds.
const DefaultReplicas = 64

// NewRing builds a ring over the given members (deduplicated, order
// ignored) with DefaultReplicas virtual points each.
func NewRing(members []string) *Ring {
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		members: uniq,
		points:  make([]ringPoint, 0, len(uniq)*DefaultReplicas),
	}
	for i, m := range uniq {
		h := hashKey(m)
		for v := 0; v < DefaultReplicas; v++ {
			// Per-replica positions: the member hash strided by the golden
			// ratio and re-mixed, so each virtual point lands independently.
			p := mix64(h + goldenGamma*uint64(v+1))
			r.points = append(r.points, ringPoint{hash: p, member: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].member < r.points[b].member
	})
	return r
}

// LookupFunc returns the first member clockwise from key's hash for which
// usable returns true (nil means every member is usable; ok is false only
// for an empty ring) — how the gateway skips unhealthy, draining or
// catalog-divergent backends without reshuffling the healthy share of the
// key space. Allocation-free.
func (r *Ring) LookupFunc(key string, usable func(member string) bool) (string, bool) {
	n := len(r.points)
	if n == 0 {
		return "", false
	}
	h := hashKey(key)
	// First point at or clockwise of h (wrapping).
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	if start == n {
		start = 0
	}
	// Walk clockwise until a usable member appears. Virtual points repeat
	// members, so bound the walk by the point count: visiting every point
	// provably visits every member.
	for i := 0; i < n; i++ {
		m := r.members[r.points[(start+i)%n].member]
		if usable == nil || usable(m) {
			return m, true
		}
	}
	return "", false
}

// goldenGamma is the golden-ratio increment (the splitmix64 stream
// constant), reused from load.PatientSeed's derivation for the same reason:
// consecutive strides land maximally spread.
const goldenGamma = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer: a cheap full-avalanche mix.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashKey hashes a string key onto the ring: FNV-1a 64 for byte mixing,
// finalized by mix64 because FNV alone avalanches poorly in the high bits
// that sort.Search depends on.
func hashKey(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return mix64(h)
}
