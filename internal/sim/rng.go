package sim

import "math/rand"

// RNG wraps a seeded deterministic random source. Components derive their
// own streams so that adding events to one component does not perturb the
// random sequence seen by another.
//
// Every RNG yields exactly the sequence of rand.New(rand.NewSource(seed)),
// but builds that source only for a stream that draws more than headLen
// values. Seeding a math/rand source costs ~10µs and ~4.9KB (its
// lagged-Fibonacci state is 607 words), and nearly every stream a world
// derives draws a handful of values or none. Until its first draw an RNG
// is a bare struct; from then on its rand.Rand runs on a head, which
// computes the first headLen draws straight from the seed (rnghead.go).
// On the draw after them the head seeds the full source and discards
// headLen draws, and the next call points r at that source, so a long
// stream draws through math/rand with no extra indirection.
type RNG struct {
	r    *rand.Rand // nil until the first draw; then on head, then on head.long
	head rngHead
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{head: newRNGHead(seed)}
}

// src returns the generator's rand.Rand, settling it first on the first
// draw and once the head has built the full source.
func (g *RNG) src() *rand.Rand {
	if g.r == nil || g.head.long != nil {
		g.settle()
	}
	return g.r
}

func (g *RNG) settle() {
	if g.r == nil {
		g.r = rand.New(&g.head)
		return
	}
	g.r, g.head.long = g.head.long, nil
}

func fnv1a(label string) int64 {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return h
}

// Stream derives an independent child generator. The derivation mixes the
// label so distinct labels yield decorrelated streams. Each Stream call
// consumes parent state, so the derivation depends on how many streams were
// drawn before it; use Derive when the caller cannot guarantee a fixed
// derivation order.
func (g *RNG) Stream(label string) *RNG {
	return NewRNG(fnv1a(label) ^ g.src().Int63())
}

// Derive returns an independent child generator that is a pure function of
// (seed, label): unlike Stream it consumes no parent state, so siblings can
// be derived in any order — or concurrently with Stream calls — without
// perturbing one another. Scenario clients use it so that client
// construction order cannot change a run.
func (g *RNG) Derive(label string) *RNG {
	return NewRNG(fnv1a(label) ^ (g.head.seed * 0x5851f42d4c957f2d) ^ 0x14057b7ef767814f)
}

// Coin returns one uniform [0,1) variate that is a pure function of
// (seed, label) — the same derivation key as Derive, finished with a
// splitmix64 mix instead of seeding a full generator, for samplers that
// need exactly one decision per label (the telemetry flight recorder's
// per-client keep/drop coin). Like Derive it consumes no generator state,
// so call order cannot perturb anything.
func (g *RNG) Coin(label string) float64 {
	x := uint64(fnv1a(label) ^ (g.head.seed * 0x5851f42d4c957f2d) ^ 0x14057b7ef767814f)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.src().Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.src().Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.src().Int63() }

// Perm returns a pseudo-random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.src().Perm(n) }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.src().NormFloat64() }

// ExpFloat64 returns an exponential variate with rate 1.
func (g *RNG) ExpFloat64() float64 { return g.src().ExpFloat64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.src().Float64() < p
}

// Uniform returns a uniform value in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*g.src().Float64()
}

// UniformDuration returns a uniform duration in [lo, hi).
func (g *RNG) UniformDuration(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(g.src().Int63n(int64(hi-lo)))
}

// ExpDuration returns an exponentially distributed duration with the given
// mean. A draw past the last Time saturates at Infinity.
func (g *RNG) ExpDuration(mean Time) Time {
	d := float64(mean) * g.src().ExpFloat64()
	if d >= 1<<63 {
		return Infinity
	}
	return Time(d)
}
