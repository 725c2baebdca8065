// Package stats provides the statistics substrate used throughout the
// repository: a deterministic random number generator, online moment
// trackers, exponentially weighted moving averages, streaming
// quantile estimators and reservoir sampling.
//
// Everything here is allocation-conscious and safe for single-goroutine use;
// callers that share an estimator across goroutines must synchronize
// externally (the stream operators in this repository are single-writer by
// construction).
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on
// splitmix64 seeding and the xoshiro256** generator. It exists so that
// experiments are reproducible across machines and Go versions, which the
// global math/rand source does not guarantee.
type RNG struct {
	s         [4]uint64
	spare     float64
	haveSpare bool
}

// NewRNG returns a generator deterministically derived from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 to spread the seed over the full state, as recommended by
	// the xoshiro authors; it never yields four zero outputs in a row, so
	// the absorbing all-zero state is unreachable.
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
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

// Int63 returns a non-negative random int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	max := uint64(n)
	// Rejection sampling below the threshold 2^64 mod max removes the
	// modulo bias. (-max) on uint64 equals 2^64-max, so (-max)%max is the
	// threshold without 128-bit arithmetic.
	threshold := -max % max
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % max)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 random bits scaled into [0,1); the standard construction.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Range returns a uniform float64 in [lo, hi).
func (r *RNG) Float64Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method. One spare variate is cached between calls.
func (r *RNG) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	// Inverse transform; Float64 returns values < 1 so the log argument is
	// in (0, 1].
	return -math.Log(1 - r.Float64())
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
