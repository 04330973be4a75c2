package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a p99 over 200 samples is the second-largest sample, not a percentile.
const minBeyond = 10

// tailLadder are the percentiles a timing may report, in per-mille,
// lowest first.
var tailLadder = []int{500, 900, 950, 990, 999}

// rank is the 1-based nearest rank of the per-mille percentile among n
// samples: ceil(q·n), at least 1. The n-rank samples above it lie beyond.
func rank(n, permille int) int {
	if k := (permille*n + 999) / 1000; k > 1 {
		return k
	}
	return 1
}

// nearestRank returns the per-mille percentile of sorted (non-empty).
func nearestRank(sorted []float64, permille int) float64 {
	return sorted[rank(len(sorted), permille)-1]
}

// tailPermille is the highest percentile on the ladder with at least
// minBeyond samples beyond it among n, or 0 when not even the median has.
func tailPermille(n int) int {
	best := 0
	for _, q := range tailLadder {
		if n-rank(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}

// percentileLabel renders a per-mille percentile as a metric suffix: p50,
// p95, p99, p99.9.
func percentileLabel(permille int) string {
	if permille%10 == 0 {
		return fmt.Sprintf("p%d", permille/10)
	}
	return fmt.Sprintf("p%d.%d", permille/10, permille%10)
}

// timing summarizes one repeat's samples of a call's latency: the median,
// the highest ladder percentile with minBeyond samples above it, and the
// sample count.
type timing struct {
	n          int
	p50        float64
	tail       float64
	tailPermil int
}

func summarize(samples []float64) timing {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	t := timing{n: len(sorted), tailPermil: tailPermille(len(sorted))}
	if t.n > 0 {
		t.p50 = nearestRank(sorted, 500)
	}
	if t.tailPermil > 0 {
		t.tail = nearestRank(sorted, t.tailPermil)
	}
	return t
}

// median of xs (the mean of the middle pair for an even count); 0 when
// empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
