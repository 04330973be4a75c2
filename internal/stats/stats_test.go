package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
	one := Summarize([]float64{7})
	if one.Std != 0 || one.Mean != 7 || one.Median != 7 {
		t.Fatalf("singleton = %+v", one)
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.P(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("P(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := c.Quantile(0.5); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("median = %v", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Fatalf("q1 = %v", got)
	}
	if !math.IsNaN(NewCDF(nil).Quantile(0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
	if NewCDF(nil).P(1) != 0 {
		t.Fatal("empty P should be 0")
	}
}

// Property: P is monotone and bounded; Quantile inverts P approximately.
func TestPropertyCDF(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := 0.0
		for _, x := range sorted {
			p := c.P(x)
			if p < prev-1e-12 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return c.P(sorted[len(sorted)-1]) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeriesConnectivity(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	// Data in seconds 0,1 and 5; total 10 s → 30% connectivity.
	ts.Add(100*time.Millisecond, 10)
	ts.Add(900*time.Millisecond, 10)
	ts.Add(1500*time.Millisecond, 5)
	ts.Add(5200*time.Millisecond, 1)
	got := ts.ConnectivityFraction(10 * time.Second)
	if math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("connectivity = %v, want 0.3", got)
	}
	total := 0.0
	for _, v := range ts.buckets {
		total += v
	}
	if total != 26 {
		t.Fatalf("total = %v", total)
	}
}

func TestTimeSeriesRuns(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	for _, sec := range []int{0, 1, 2, 5, 8, 9} {
		ts.Add(time.Duration(sec)*time.Second+time.Millisecond, 1)
	}
	conns := ts.ConnectionDurations(10 * time.Second)
	wantConns := []float64{3, 1, 2}
	if len(conns) != len(wantConns) {
		t.Fatalf("connections = %v", conns)
	}
	for i := range conns {
		if conns[i] != wantConns[i] {
			t.Fatalf("connections = %v, want %v", conns, wantConns)
		}
	}
	gaps := ts.DisruptionDurations(10 * time.Second)
	wantGaps := []float64{2, 2}
	if len(gaps) != len(wantGaps) || gaps[0] != 2 || gaps[1] != 2 {
		t.Fatalf("disruptions = %v, want %v", gaps, wantGaps)
	}
}

func TestTimeSeriesRates(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Add(0, 1000)
	ts.Add(500*time.Millisecond, 500)
	ts.Add(3*time.Second, 200)
	rates := ts.NonzeroRates(5 * time.Second)
	if len(rates) != 2 || rates[0] != 1500 || rates[1] != 200 {
		t.Fatalf("rates = %v", rates)
	}
}

func TestTimeSeriesValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bucket did not panic")
		}
	}()
	NewTimeSeries(0)
}

// Property: connectivity equals 1 - (sum of disruptions)/total (in whole
// buckets).
func TestPropertyRunsPartition(t *testing.T) {
	f := func(marks []uint8) bool {
		ts := NewTimeSeries(time.Second)
		total := 30 * time.Second
		for _, m := range marks {
			ts.Add(time.Duration(m%30)*time.Second, 1)
		}
		connSecs := 0.0
		for _, c := range ts.ConnectionDurations(total) {
			connSecs += c
		}
		gapSecs := 0.0
		for _, g := range ts.DisruptionDurations(total) {
			gapSecs += g
		}
		if connSecs+gapSecs != 30 {
			return false
		}
		return math.Abs(ts.ConnectivityFraction(total)-connSecs/30) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileFromBuckets(t *testing.T) {
	approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	uppers := []float64{10, 20, 40, 80}
	cases := []struct {
		name   string
		uppers []float64
		counts []int64
		q      float64
		want   float64
		nan    bool
	}{
		{name: "empty-slices", nan: true},
		{name: "zero-counts", uppers: uppers, counts: []int64{0, 0, 0, 0}, nan: true},
		{name: "mismatched-lengths", uppers: uppers, counts: []int64{1, 2}, nan: true},
		// Single non-empty bucket: interpolate across [20, 40].
		{name: "single-bucket-min", uppers: uppers, counts: []int64{0, 0, 4, 0}, q: 0, want: 20},
		{name: "single-bucket-median", uppers: uppers, counts: []int64{0, 0, 4, 0}, q: 0.5, want: 30},
		{name: "single-bucket-max", uppers: uppers, counts: []int64{0, 0, 4, 0}, q: 1, want: 40},
		// First bucket's lower bound is 0.
		{name: "first-bucket", uppers: uppers, counts: []int64{2, 0, 0, 0}, q: 0.5, want: 5},
		// Uniform counts: the median sits exactly on a bucket boundary.
		{name: "boundary", uppers: uppers, counts: []int64{1, 1, 1, 1}, q: 0.5, want: 20},
		// Interpolation inside the third bucket: rank 2.5 of 4 is at the
		// midpoint of [20, 40].
		{name: "interior", uppers: uppers, counts: []int64{1, 1, 1, 1}, q: 0.625, want: 30},
		// Skewed mass: 9 of 10 observations in the first bucket.
		{name: "skewed-p50", uppers: uppers, counts: []int64{9, 0, 0, 1}, q: 0.5, want: 10.0 * 5 / 9},
		{name: "skewed-p95", uppers: uppers, counts: []int64{9, 0, 0, 1}, q: 0.95, want: 40 + 0.5*40},
		// q clamps.
		{name: "clamp-low", uppers: uppers, counts: []int64{1, 1, 1, 1}, q: -3, want: 0},
		{name: "clamp-high", uppers: uppers, counts: []int64{1, 1, 1, 1}, q: 7, want: 80},
	}
	for _, tc := range cases {
		got := QuantileFromBuckets(tc.uppers, tc.counts, tc.q)
		if tc.nan {
			if !math.IsNaN(got) {
				t.Errorf("%s: got %v, want NaN", tc.name, got)
			}
			continue
		}
		if !approx(got, tc.want) {
			t.Errorf("%s: QuantileFromBuckets(q=%g) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

// Property: bucket quantiles are monotone in q and bounded by the
// histogram's support.
func TestPropertyQuantileFromBucketsMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int64, 6)
		uppers := []float64{1, 2, 4, 8, 16, 32}
		any := false
		for i, r := range raw {
			counts[i%6] += int64(r % 7)
			if r%7 > 0 {
				any = true
			}
		}
		if !any {
			return math.IsNaN(QuantileFromBuckets(uppers, counts, 0.5))
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := QuantileFromBuckets(uppers, counts, q)
			if v < prev-1e-9 || v < 0 || v > 32 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
