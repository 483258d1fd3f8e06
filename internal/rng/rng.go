// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the k-center reproduction.
//
// Experiments in the paper are averaged over repeated runs on regenerated
// graphs; to make every run reproducible — including runs that fan out across
// simulated MapReduce reducers — each parallel worker needs its own
// independent stream derived deterministically from a parent seed. The
// standard library's math/rand/v2 offers PCG but no principled split
// operation, so we implement xoshiro256** seeded via splitmix64, the
// combination recommended by Blackman & Vigna. Splitting hashes the parent's
// seed with a stream index through splitmix64, which is the standard way to
// derive statistically independent xoshiro states.
//
// The package is intentionally free of global state: all functions hang off a
// *Source value, and a Source is NOT safe for concurrent use — callers split
// one Source per goroutine instead of sharing.
package rng

import "math"

// Source is a xoshiro256** generator. The zero value is invalid; construct
// with New or Split.
type Source struct {
	s0, s1, s2, s3 uint64
	// seed retains the original seed so a Source can report how it was
	// created and derive child streams that do not overlap with itself.
	seed uint64
}

// splitmix64 advances x and returns the next splitmix64 output. It is used
// both to expand a 64-bit seed into the 256-bit xoshiro state and to mix
// (seed, stream) pairs when splitting.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed. Two Sources built
// from the same seed produce identical streams.
func New(seed uint64) *Source {
	s := &Source{seed: seed}
	x := seed
	s.s0 = splitmix64(&x)
	s.s1 = splitmix64(&x)
	s.s2 = splitmix64(&x)
	s.s3 = splitmix64(&x)
	// xoshiro must not be seeded with the all-zero state; splitmix64 cannot
	// produce four consecutive zeros, but guard anyway for clarity.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
	return s
}

// Split derives an independent child stream identified by index. Children of
// the same parent with distinct indices, and children of distinct parents,
// produce statistically independent streams. Split does not advance the
// parent.
func (s *Source) Split(index uint64) *Source {
	// Mix the parent's seed with the index through two rounds of splitmix64
	// so that (seed, index) and (seed', index') collide only if the full
	// 128-bit input collides.
	x := s.seed ^ 0x243f6a8885a308d3 // pi fraction, decorrelates from New
	a := splitmix64(&x)
	x ^= index * 0x9e3779b97f4a7c15
	b := splitmix64(&x)
	return New(a ^ (b << 1) ^ index)
}

// Seed reports the seed the Source was created with.
func (s *Source) Seed() uint64 { return s.seed }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
// The implementation uses Lemire's nearly-divisionless bounded rejection.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	un := uint64(n)
	hi, lo := mul64(s.Uint64(), un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			hi, lo = mul64(s.Uint64(), un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo). Implemented in
// pure Go to avoid importing math/bits for a single function — and to keep
// the generator trivially portable.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniformly random float64 in [0, 1) with 53 random bits.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float64Range returns a uniformly random float64 in [lo, hi).
func (s *Source) Float64Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// NormFloat64 returns a normally distributed float64 with mean 0 and standard
// deviation 1, using the Marsaglia polar method. The polar method draws an
// unbounded but geometrically distributed number of uniforms, so the stream
// consumption per call is not fixed; experiments must not rely on lockstep
// stream alignment across different code paths.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(q)/q)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles p in place with a Fisher–Yates pass.
func (s *Source) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bernoulli reports true with probability p (clamped to [0, 1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Sample returns k distinct indices drawn uniformly from [0, n) in selection
// order. It panics if k > n or k < 0. For k close to n it falls back to a
// partial Fisher–Yates; for small k it uses rejection on a set, which avoids
// allocating an n-slot array.
func (s *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	if k*4 >= n {
		p := s.Perm(n)
		return p[:k]
	}
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := s.Intn(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// Exp returns an exponentially distributed float64 with rate 1.
func (s *Source) Exp() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// LogNormal returns exp(mu + sigma*Z) for standard normal Z. Heavy-tailed
// feature scales in the KDD-like generator use this.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}
