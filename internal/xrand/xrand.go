// Package xrand provides a small, deterministic random number generator and
// the distribution samplers used throughout the LaSS reproduction.
//
// Every stochastic component in the repository (arrival processes, service
// time distributions, trace synthesis, random deflation experiments) draws
// from an explicitly seeded *Rand so that experiments are reproducible
// bit-for-bit across runs and platforms. The generator is splitmix64, which
// is tiny, fast, and passes BigCrush when used as a 64-bit stream.
package xrand

import "math"

// Rand is a deterministic pseudo-random source based on splitmix64.
// It is intentionally not safe for concurrent use; give each concurrent
// component its own Rand via Split or Fork.
type Rand struct {
	state uint64
}

// New returns a Rand seeded with the given seed. Two Rands created with the
// same seed produce identical streams.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Fork derives an independent generator from r. The derived stream is
// decorrelated from the parent by mixing a fresh output with a distinct
// constant, so components can be given private sub-streams without
// coordinating seed assignment.
func (r *Rand) Fork() *Rand {
	return &Rand{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63n returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with n <= 0")
	}
	// Rejection sampling to avoid modulo bias.
	max := uint64(math.MaxUint64) - uint64(math.MaxUint64)%uint64(n)
	v := r.Uint64()
	for v >= max {
		v = r.Uint64()
	}
	return int64(v % uint64(n))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	return int(r.Int63n(int64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed sample with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp with rate <= 0")
	}
	// Inverse transform; guard against log(0).
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Norm returns a normally distributed sample with the given mean and
// standard deviation, via the Box-Muller transform.
func (r *Rand) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns a log-normally distributed sample where the underlying
// normal has parameters mu and sigma.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Poisson returns a Poisson-distributed sample with the given mean.
// For small means it uses Knuth's product method; for large means a
// normal approximation with continuity correction, which is accurate to
// well under a percent for mean >= 30 and avoids O(mean) time.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := r.Norm(mean, math.Sqrt(mean))
	if v < 0 {
		return 0
	}
	return int(v + 0.5)
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *Rand) Perm(n int) []int {
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
