package sim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// countingSource is a math/rand source that counts its draws, so a test
// can run a reference stream to a given draw.
type countingSource struct {
	rand.Source64
	n int
}

func (c *countingSource) Int63() int64   { c.n++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64 { c.n++; return c.Source64.Uint64() }

func newReference(seed int64) (*rand.Rand, *countingSource) {
	c := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	return rand.New(c), c
}

// rngOps drives one RNG method and the math/rand call it must match, and
// reports whether they agreed.
var rngOps = []struct {
	name string
	same func(g *RNG, r *rand.Rand) bool
}{
	{"Float64", func(g *RNG, r *rand.Rand) bool { return g.Float64() == r.Float64() }},
	{"Int63", func(g *RNG, r *rand.Rand) bool { return g.Int63() == r.Int63() }},
	{"Intn(7)", func(g *RNG, r *rand.Rand) bool { return g.Intn(7) == r.Intn(7) }},
	{"Intn(1024)", func(g *RNG, r *rand.Rand) bool { return g.Intn(1024) == r.Intn(1024) }},
	{"Intn(2^40+3)", func(g *RNG, r *rand.Rand) bool { return g.Intn(1<<40+3) == r.Intn(1<<40+3) }},
	{"Perm(7)", func(g *RNG, r *rand.Rand) bool {
		a, b := g.Perm(7), r.Perm(7)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}},
	{"NormFloat64", func(g *RNG, r *rand.Rand) bool { return g.NormFloat64() == r.NormFloat64() }},
	{"ExpFloat64", func(g *RNG, r *rand.Rand) bool { return g.ExpFloat64() == r.ExpFloat64() }},
	{"Bool(0.3)", func(g *RNG, r *rand.Rand) bool { return g.Bool(0.3) == (r.Float64() < 0.3) }},
	{"Uniform(-2,5)", func(g *RNG, r *rand.Rand) bool { return g.Uniform(-2, 5) == -2+7*r.Float64() }},
	{"UniformDuration(0,100µs)", func(g *RNG, r *rand.Rand) bool {
		return g.UniformDuration(0, 100*time.Microsecond) == Time(r.Int63n(int64(100*time.Microsecond)))
	}},
	// Int63n's rejection loop draws twice about half the time here, so
	// calls straddle the head's last draw at every offset.
	{"UniformDuration(0,2^62+1)", func(g *RNG, r *rand.Rand) bool {
		return g.UniformDuration(0, 1<<62+1) == Time(r.Int63n(1<<62+1))
	}},
	{"ExpDuration(1s)", func(g *RNG, r *rand.Rand) bool {
		return g.ExpDuration(time.Second) == Time(float64(time.Second)*r.ExpFloat64())
	}},
	{"Stream", func(g *RNG, r *rand.Rand) bool { return g.Stream("dhcp").head.seed == fnv1a("dhcp")^r.Int63() }},
}

// matchesMathRand runs ops on NewRNG(seed) and on a reference stdlib
// stream until the reference has made at least draws draws, and returns
// the index of the first op that disagreed, or -1.
func matchesMathRand(seed int64, draws int, op func(i int) int) (int, string) {
	g := NewRNG(seed)
	r, c := newReference(seed)
	for i := 0; c.n < draws; i++ {
		o := rngOps[op(i)]
		if !o.same(g, r) {
			return i, o.name
		}
	}
	return -1, ""
}

// rngTestSeeds are the seeds rngSource.Seed treats specially or reduces
// unusually: zero and the multiples of 2³¹−1 (all seeded as 89482311),
// 89482311 itself, the int64 extremes and negative seeds.
func rngTestSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, -2, 89482311, -89482311, 1 << 31, -1 << 31, 1 << 32,
		math.MaxInt64, -math.MaxInt64, math.MinInt64, math.MaxInt32 - 1, -(math.MaxInt32 - 1)}
	for _, k := range []int64{1, 2, 3, 1 << 20, math.MaxInt64 / int32max} {
		seeds = append(seeds, k*int32max, -k*int32max, k*int32max+1, -k*int32max-1)
	}
	return seeds
}

// TestRNGMatchesMathRand pins the head to math/rand: every RNG method
// yields what rand.New(rand.NewSource(seed)) yields, from the first draw
// to headLen+300, across the draw on which the head builds the full
// source. Special seeds run every method alone and all of them
// interleaved; 10,000 random seeds run the interleaving and one method
// alone each.
func TestRNGMatchesMathRand(t *testing.T) {
	const draws = headLen + 300
	check := func(seed int64, what string, op func(i int) int) {
		t.Helper()
		if i, name := matchesMathRand(seed, draws, op); i >= 0 {
			t.Fatalf("seed %d, %s: op %d (%s) differs from math/rand", seed, what, i, name)
		}
	}
	for _, seed := range rngTestSeeds() {
		for k := range rngOps {
			check(seed, rngOps[k].name+" alone", func(int) int { return k })
		}
		check(seed, "interleaved", func(i int) int { return i % len(rngOps) })
	}
	seeds := rand.New(rand.NewSource(20))
	for n := 0; n < 10000; n++ {
		seed := int64(seeds.Uint64())
		check(seed, "interleaved", func(i int) int { return (i + n) % len(rngOps) })
		check(seed, rngOps[n%len(rngOps)].name+" alone", func(int) int { return n % len(rngOps) })
	}

	// A stream that outlives its head draws from the full source directly.
	g := NewRNG(5)
	for i := 0; i < headLen+1; i++ {
		g.Int63()
	}
	if g.head.long == nil {
		t.Fatal("the head has not built the full source after its last draw")
	}
	g.Int63()
	if g.head.long != nil {
		t.Fatal("the stream still draws through its head")
	}
}

// TestRNGFewDrawsAreCheap pins the point of the head: a stream that draws
// no more than headLen values never seeds a 4.9KB math/rand source.
func TestRNGFewDrawsAreCheap(t *testing.T) {
	streams := make([]*RNG, 100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range streams {
		g := NewRNG(int64(i))
		for d := 0; d < headLen; d++ {
			g.Int63()
		}
		streams[i] = g
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(streams)); per >= 256 {
		t.Errorf("a stream drawing %d values allocates %d bytes, want < 256", headLen, per)
	}
	runtime.KeepAlive(streams)
}

// FuzzRNG checks a seed and a program of RNG calls against the stdlib:
// each byte picks one op, and every op must agree with math/rand.
func FuzzRNG(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3})
	f.Add(int64(-int32max), []byte{5, 5, 5, 11, 11, 11, 6, 7})
	f.Add(int64(math.MinInt64), []byte("interleave every op past the head"))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		g := NewRNG(seed)
		r := rand.New(rand.NewSource(seed))
		for i, b := range ops {
			o := rngOps[int(b)%len(rngOps)]
			if !o.same(g, r) {
				t.Fatalf("seed %d: op %d (%s) differs from math/rand", seed, i, o.name)
			}
		}
	})
}
