// Package experiments regenerates every table and figure in the paper's
// evaluation. Each experiment function is deterministic in its Options and
// returns typed series/tables that cmd/spider-bench renders as text or CSV.
//
// The experiment index lives in DESIGN.md; expected-vs-measured shapes are
// recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"spider/internal/fleet"
	"spider/internal/obs"
	"spider/internal/sim"
)

// Options control experiment fidelity. The zero value means full fidelity
// with seed 1.
type Options struct {
	// Seed drives every random choice.
	Seed int64
	// Scale in (0,1] shrinks run durations and trial counts for smoke
	// tests and benchmarks; 0 means 1.0 (full fidelity).
	Scale float64
	// Fleet, when non-nil, executes the experiment's independent
	// simulation runs on a shared bounded worker pool and memoizes
	// expensive shared studies (the town study) in its result cache.
	// Nil runs everything inline on the calling goroutine. Results are
	// identical either way: every job derives its own seed, and merges
	// happen in canonical job order. Fleet never participates in cache
	// keys.
	Fleet *fleet.Group
	// Clock supplies the wall-clock reads behind timing columns some
	// tables report (AppendixA's µs columns). Nil means the real clock;
	// tests substitute obs.NewManual so rendered artifacts containing
	// wall times become byte-stable. Never part of cache keys.
	Clock obs.Clock
	// Runs, when non-nil, files every simulation run's artifacts under
	// its run label ("chaos#0", "population#n=8", …): its event and span
	// streams when the store traces, and the closed windows of a telemetry
	// aggregator (default window, default SLOs) when it rolls up. Each
	// artifact is a pure function of the run's (seed, config) and the
	// store exports in sorted label order, so the merged JSONL is
	// byte-identical at any fleet worker count. Note the
	// fleet result cache can satisfy a memoized experiment without
	// re-running its jobs; collect with a fresh pool when a complete
	// export matters.
	Runs *RunStore
}

// Key returns the canonical result-cache key for an experiment with these
// options. Seed and scale uniquely determine any experiment's output, so
// two Options with equal keys are interchangeable; the delimited encoding
// keeps differing Options from colliding.
func (o Options) Key(id string) string {
	return fmt.Sprintf("%s|seed=%d|scale=%g", id, o.seed(), o.scale())
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) scale() float64 {
	if o.Scale <= 0 || o.Scale > 1 {
		return 1
	}
	return o.Scale
}

func (o Options) clock() obs.Clock {
	if o.Clock == nil {
		return obs.Wall()
	}
	return o.Clock
}

// dur scales a full-fidelity duration, with a floor to stay meaningful.
func (o Options) dur(full sim.Time, min sim.Time) sim.Time {
	d := sim.Time(float64(full) * o.scale())
	if d < min {
		return min
	}
	return d
}

// n scales a full-fidelity count with a floor.
func (o Options) n(full, min int) int {
	v := int(float64(full) * o.scale())
	if v < min {
		return min
	}
	return v
}

// Series is one named line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a set of series with axis labels.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Table is a titled grid.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// Render prints a figure as aligned text columns: one x column and one y
// column per series.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(&b, "# x: %s   y: %s\n", f.XLabel, f.YLabel)
	fmt.Fprintf(&b, "%-12s", "x")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-24s", s.Name)
	}
	b.WriteByte('\n')
	// Merge x values across series.
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	var sorted []float64
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	for _, x := range sorted {
		fmt.Fprintf(&b, "%-12.4g", x)
		for _, s := range f.Series {
			found := false
			for i, sx := range s.X {
				if sx == x {
					fmt.Fprintf(&b, "%-24.5g", s.Y[i])
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(&b, "%-24s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as series-name,x,y rows.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, s := range f.Series {
		for i := range s.X {
			fmt.Fprintf(&b, "%s,%g,%g\n", s.Name, s.X[i], s.Y[i])
		}
	}
	return b.String()
}

// Render prints the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated rows.
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ",") + "\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ",") + "\n")
	}
	return b.String()
}
