package telemetry

import (
	"math"
	"math/bits"

	"spider/internal/stats"
)

// Sketch is a deterministic streaming quantile sketch over non-negative
// int64 observations (latencies in ns): a fixed log-linear histogram —
// each power-of-two octave split into four linear sub-buckets — giving
// ≤12.5% relative error at any quantile with zero allocation and zero
// randomness. Two sketches built from the same observations in any order
// are identical, so every rollup export it feeds is byte-identical at any
// fleet worker count. This is deliberately not a randomized sketch
// (t-digest, KLL): those trade determinism for tighter error, and
// determinism is the contract here.
type Sketch struct {
	counts [sketchBuckets]int64
	count  int64
}

// sketchBuckets: values 0..7 get exact unit buckets; every octave
// [2^(o-1), 2^o) for o in 4..63 is split into 4 linear sub-buckets.
const sketchBuckets = 8 + 60*4

// sketchUppers[i] is bucket i's upper bound, the shape handed to
// stats.QuantileFromBuckets.
var sketchUppers = func() [sketchBuckets]float64 {
	var u [sketchBuckets]float64
	for b := 0; b < 8; b++ {
		u[b] = float64(b)
	}
	for b := 8; b < sketchBuckets; b++ {
		k := b - 8
		o := 4 + k/4
		lo := int64(1) << uint(o-1)
		u[b] = float64(lo + int64(k%4+1)*(lo>>2))
	}
	return u
}()

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 8 {
		return int(v)
	}
	o := bits.Len64(uint64(v)) // 4..63 for v >= 8
	lo := int64(1) << uint(o-1)
	return 8 + (o-4)*4 + int((v-lo)>>uint(o-3))
}

// Observe folds one value in.
func (s *Sketch) Observe(v int64) {
	s.counts[bucketOf(v)]++
	s.count++
}

// Quantile returns the q-quantile through the shared histogram-quantile
// path, or 0 on an empty sketch (never NaN: the value is exported as
// JSON, which has no NaN).
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	v := stats.QuantileFromBuckets(sketchUppers[:], s.counts[:], q)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// Sparse returns the non-empty buckets as (bucket index, count) pairs in
// ascending index order — the export form of the sketch.
func (s *Sketch) Sparse() [][2]int64 {
	if s.count == 0 {
		return nil
	}
	var out [][2]int64
	for i, c := range s.counts {
		if c > 0 {
			out = append(out, [2]int64{int64(i), c})
		}
	}
	return out
}

// QuantileFromSparse computes a quantile from an exported sparse
// histogram, the inverse of Sparse — how tracereport re-derives tails
// from a rollup file without the live sketch. Returns 0 when empty or
// any bucket index is out of range.
func QuantileFromSparse(sparse [][2]int64, q float64) float64 {
	if len(sparse) == 0 {
		return 0
	}
	counts := make([]int64, sketchBuckets)
	for _, p := range sparse {
		if p[0] < 0 || p[0] >= sketchBuckets {
			return 0
		}
		counts[p[0]] += p[1]
	}
	v := stats.QuantileFromBuckets(sketchUppers[:], counts, q)
	if math.IsNaN(v) {
		return 0
	}
	return v
}
