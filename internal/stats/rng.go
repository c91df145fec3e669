// Package stats provides the deterministic random-number plumbing and the
// probability distributions used throughout the simulator: seeded PCG
// streams, log-normal / exponential / Zipf samplers, weighted
// categorical choice, and summary statistics (percentiles, CDFs, means).
//
// Every stochastic decision in the repository draws from a *stats.RNG that
// was derived from the study's master seed, so whole-study results are
// bit-reproducible.
package stats

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random source. It wraps math/rand/v2's PCG
// generator and adds the samplers the workload and failure models need.
//
// The generator state is embedded by value, so an RNG can live inline in a
// per-entity struct (one stream per job, one per server) with no
// allocation and no pointer chase on the draw path — what the parallel
// telemetry pipeline's pre-split streams rely on. Initialize in place with
// Init and do not copy afterwards: the embedded rand.Rand points at the
// embedded PCG state.
type RNG struct {
	pcg rand.PCG
	rnd rand.Rand
}

// NewRNG returns a generator seeded from seed. Two RNGs built from the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	g := &RNG{}
	g.Init(seed)
	return g
}

// Init seeds the generator in place (alloc-free re-initialization);
// NewRNG(seed) and a zero RNG after Init(seed) are interchangeable.
func (g *RNG) Init(seed uint64) {
	// Mix the single user-facing seed into the two PCG words with
	// splitmix64 so that nearby seeds give unrelated streams.
	s1 := SplitMix64(seed)
	s2 := SplitMix64(s1)
	g.pcg = *rand.NewPCG(s1, s2)
	g.rnd = *rand.New(&g.pcg)
}

// Split derives an independent child stream. The label keeps derivations
// for different concerns (arrival times, failure draws, ...) decoupled:
// adding draws to one stream does not perturb the others.
func (g *RNG) Split(label string) *RNG {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	h ^= g.rnd.Uint64()
	return NewRNG(h)
}

// SplitMix64 is the standard splitmix64 finalizer: a bijective mixer that
// sends nearby inputs to unrelated outputs. Seed plumbing throughout the
// repository (RNG construction here, per-run seed derivation in
// internal/sweep, per-entity stream derivation below) shares this one
// definition, because recorded results depend on it bit-for-bit.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveEntitySeed maps (studySeed, concern label, entity id) to the seed
// of that entity's private stream, with a splitmix64 chain in the style of
// internal/sweep's DeriveSeed. The derivation is stateless: it depends only
// on its inputs, never on how many draws any other stream has made, which
// is what lets each telemetry entity (server, job) own a pre-split stream
// that is identical no matter which worker samples it or in what order.
// TestDeriveStreamStability pins golden values.
func DeriveEntitySeed(seed uint64, label string, id uint64) uint64 {
	h := SplitMix64(seed ^ 0x6a09e667f3bcc909)
	for i := 0; i < len(label); i++ { // FNV-1a fold, as RNG.Split does
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return SplitMix64(h ^ (id+1)*0x9e3779b97f4a7c15)
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.rnd.Float64() }

// IntN returns a uniform sample in [0, n). It panics if n <= 0.
func (g *RNG) IntN(n int) int { return g.rnd.IntN(n) }

// Int63 returns a uniform non-negative int64.
func (g *RNG) Int63() int64 { return int64(g.rnd.Uint64() >> 1) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.rnd.Uint64() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.rnd.NormFloat64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.rnd.Float64() < p }

// Exponential samples Exp(rate); the mean of the distribution is 1/rate.
// It panics if rate <= 0.
func (g *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential rate must be positive")
	}
	return g.rnd.ExpFloat64() / rate
}

// LogNormal samples exp(N(mu, sigma^2)). The median of the distribution is
// exp(mu); sigma controls tail heaviness.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.rnd.NormFloat64())
}

// Uniform samples uniformly from [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.rnd.Float64()
}
