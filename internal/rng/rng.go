// Package rng provides a small, deterministic pseudo-random number generator
// used by every randomized component of the library (projection generation,
// genetic search, synthetic ECG generation, dataset splits).
//
// The generator is xoshiro256**, seeded through splitmix64. It is implemented
// here, rather than using math/rand, so that results are bit-reproducible
// across Go versions and platforms: experiment tables in EXPERIMENTS.md can be
// regenerated exactly from a seed.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct with New.
type Rand struct {
	s [4]uint64
	// cached spare normal deviate for Box-Muller
	hasSpare bool
	spare    float64
}

// splitmix64 advances the state and returns the next value of the splitmix64
// sequence. It is used only to expand a single seed word into the full
// xoshiro256** state, as recommended by the xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds yield independent
// streams for any practical purpose.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// A pathological all-zero state cannot occur: splitmix64 is a bijection
	// over uint64, so four consecutive outputs are zero only for one specific
	// seed per position, never all four at once. Guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives a new, statistically independent generator from r.
// It is used to give each record/beat/GA-worker its own stream so that
// parallel evaluation order does not change results.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-rejection method, which is exact (unbiased).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Norm returns a standard normal deviate (mean 0, standard deviation 1)
// using the Box-Muller transform with a cached spare.
func (r *Rand) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// NormScaled returns mean + sd*Norm().
func (r *Rand) NormScaled(mean, sd float64) float64 {
	return mean + sd*r.Norm()
}

// Shuffle randomly permutes n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Trit returns one of {+1, -1, 0} with the Achlioptas probabilities
// {1/6, 1/6, 2/3}. It consumes one 64-bit draw.
func (r *Rand) Trit() int8 {
	// Draw a uniform value in [0, 6) exactly.
	switch r.Intn(6) {
	case 0:
		return +1
	case 1:
		return -1
	default:
		return 0
	}
}

// LogSparseTrit returns one of {+1, -1, 0} at the aggressive end of the
// Li-Hastie-Church very sparse family, s = d/ln(d): non-zero with probability
// ln(d)/d (half each sign), floored at 1/d so tiny d still draws entries and
// capped at the Achlioptas 1/3 so it never exceeds the dense-sparse families.
// d must be positive.
func (r *Rand) LogSparseTrit(d int) int8 {
	if d <= 0 {
		panic("rng: LogSparseTrit needs d > 0")
	}
	p := math.Log(float64(d)) / float64(d)
	if p < 1/float64(d) {
		p = 1 / float64(d)
	}
	if p > 1.0/3 {
		p = 1.0 / 3
	}
	if r.Float64() >= p {
		return 0
	}
	if r.Intn(2) == 0 {
		return +1
	}
	return -1
}
