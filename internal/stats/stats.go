// Package stats provides the summary statistics, empirical CDFs, and
// connectivity time-series used to report every figure and table in the
// evaluation.
package stats

import (
	"fmt"
	"math"
	"sort"

	"spider/internal/sim"
)

// Summary holds the usual scalar statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary. An empty sample yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	varsum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varsum += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(varsum / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantileSorted(sorted, 0.5)
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f med=%.3f max=%.3f",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.Max)
}

// CDF is an empirical cumulative distribution over a sample.
type CDF struct {
	xs []float64 // sorted
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []float64) CDF {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return CDF{xs: xs}
}

// P returns the fraction of samples ≤ x.
func (c CDF) P(x float64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	return float64(sort.SearchFloat64s(c.xs, math.Nextafter(x, math.Inf(1)))) / float64(len(c.xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation.
func (c CDF) Quantile(q float64) float64 {
	return quantileSorted(c.xs, q)
}

func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// Percentile returns the q-quantile (q in [0,1], linearly interpolated) of
// an unsorted sample, without mutating it. NaN for an empty sample.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// QuantileFromBuckets returns the q-quantile of a distribution summarized
// by a fixed-bucket histogram: uppers[i] is bucket i's upper bound
// (ascending), counts[i] its observation count, and observations are
// assumed uniform within a bucket, so the answer interpolates linearly
// between the bucket's lower bound (the previous upper, or 0 for the
// first bucket) and its upper bound. This is the shared quantile path for
// every streaming sketch in the tree (internal/telemetry's rollup
// windows, tracereport's rollup reports): deterministic, no sampling, and
// exact to within one bucket's width.
//
// q clamps to [0,1]. An empty histogram (no counts, or mismatched slice
// lengths) yields NaN, mirroring Percentile on an empty sample.
func QuantileFromBuckets(uppers []float64, counts []int64, q float64) float64 {
	if len(uppers) != len(counts) || len(uppers) == 0 {
		return math.NaN()
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = uppers[i-1]
		}
		if rank <= float64(cum+c) {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(uppers[i]-lower)
		}
		cum += c
	}
	// rank == total landed past the loop's last bucket due to float
	// rounding: the answer is the last non-empty bucket's upper bound.
	for i := len(counts) - 1; i >= 0; i-- {
		if counts[i] > 0 {
			return uppers[i]
		}
	}
	return math.NaN()
}

// Jain returns Jain's fairness index (Σx)²/(n·Σx²) of a per-client
// allocation: 1 when every client gets the same share, 1/n when one client
// gets everything. An empty or all-zero sample is perfectly fair — every
// client got the same (zero) share — so it yields 1 rather than a 0/0.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// TimeSeries accumulates a value (typically bytes delivered) into fixed
// time buckets; connectivity, disruption and instantaneous-bandwidth
// metrics all derive from it.
type TimeSeries struct {
	bucket  sim.Time
	buckets map[int64]float64
	maxIdx  int64
	any     bool
}

// NewTimeSeries creates a series with the given bucket width (the paper's
// metrics use 1 s).
func NewTimeSeries(bucket sim.Time) *TimeSeries {
	if bucket <= 0 {
		panic("stats: NewTimeSeries needs positive bucket")
	}
	return &TimeSeries{bucket: bucket, buckets: make(map[int64]float64)}
}

// Add accumulates v at time at.
func (ts *TimeSeries) Add(at sim.Time, v float64) {
	idx := int64(at / ts.bucket)
	ts.buckets[idx] += v
	if idx > ts.maxIdx {
		ts.maxIdx = idx
	}
	ts.any = true
}

// ConnectivityFraction returns the fraction of buckets in [0, total) with a
// positive value — the paper's "average connectivity".
func (ts *TimeSeries) ConnectivityFraction(total sim.Time) float64 {
	n := int64(total / ts.bucket)
	if n <= 0 {
		return 0
	}
	conn := int64(0)
	for i := int64(0); i < n; i++ {
		if ts.buckets[i] > 0 {
			conn++
		}
	}
	return float64(conn) / float64(n)
}

// runs returns the lengths (in seconds) of maximal runs of buckets matching
// nonzero within [0, total).
func (ts *TimeSeries) runs(total sim.Time, nonzero bool) []float64 {
	n := int64(total / ts.bucket)
	var out []float64
	runLen := int64(0)
	for i := int64(0); i < n; i++ {
		match := (ts.buckets[i] > 0) == nonzero
		if match {
			runLen++
			continue
		}
		if runLen > 0 {
			out = append(out, float64(runLen)*ts.bucket.Seconds())
			runLen = 0
		}
	}
	if runLen > 0 {
		out = append(out, float64(runLen)*ts.bucket.Seconds())
	}
	return out
}

// ConnectionDurations returns contiguous connected periods in seconds
// (Figure 11).
func (ts *TimeSeries) ConnectionDurations(total sim.Time) []float64 {
	return ts.runs(total, true)
}

// DisruptionDurations returns contiguous zero periods in seconds
// (Figure 12).
func (ts *TimeSeries) DisruptionDurations(total sim.Time) []float64 {
	return ts.runs(total, false)
}

// Rates returns the per-bucket rate (value per second) for every bucket
// in [0, total), zero buckets included, indexable by bucket number —
// used to compare goodput windows before and after an injected fault.
func (ts *TimeSeries) Rates(total sim.Time) []float64 {
	n := int64(total / ts.bucket)
	out := make([]float64, 0, n)
	perSec := ts.bucket.Seconds()
	for i := int64(0); i < n; i++ {
		out = append(out, ts.buckets[i]/perSec)
	}
	return out
}

// NonzeroRates returns the per-bucket rate (value per second) for every
// bucket with data — the paper's "instantaneous bandwidth" (Figure 13).
func (ts *TimeSeries) NonzeroRates(total sim.Time) []float64 {
	n := int64(total / ts.bucket)
	var out []float64
	perSec := ts.bucket.Seconds()
	for i := int64(0); i < n; i++ {
		if v := ts.buckets[i]; v > 0 {
			out = append(out, v/perSec)
		}
	}
	return out
}
