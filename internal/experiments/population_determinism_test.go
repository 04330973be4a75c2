package experiments

import (
	"strings"
	"testing"

	"spider/internal/core"
	"spider/internal/fleet"
)

// populationOutput renders the full population sweep (table, CSV, and
// figure) through a pool with the given worker count; 0 means inline.
func populationOutput(workers int) string {
	o := Options{Seed: 1, Scale: 0.02}
	if workers > 0 {
		pool := fleet.New(fleet.Config{Workers: workers})
		defer pool.Close()
		o.Fleet = pool.Group("population")
	}
	r := PopulationStudy(o)
	tab := PopulationTable(r)
	return tab.Render() + "\n" + tab.CSV() + "\n" + PopulationFigure(r).Render()
}

// TestPopulationWorkerCountInvariance extends the determinism regression
// to N-client runs: the population sweep must render byte-identically
// inline, at one worker, and at eight workers. Each rung is a single
// N-client scenario whose clients share one engine, so only rung order —
// fixed by job order — could ever leak.
func TestPopulationWorkerCountInvariance(t *testing.T) {
	inline := populationOutput(0)
	if !strings.Contains(inline, "jain") {
		t.Fatalf("population table missing fairness column:\n%s", inline)
	}
	if w1 := populationOutput(1); w1 != inline {
		t.Errorf("workers=1 differs from inline run:\n--- inline ---\n%s\n--- workers=1 ---\n%s", inline, w1)
	}
	if w8 := populationOutput(8); w8 != inline {
		t.Errorf("workers=8 differs from inline run:\n--- inline ---\n%s\n--- workers=8 ---\n%s", inline, w8)
	}
}

// TestPopulationScenarioMatchesStudy: executing one rung directly (as the
// ladder pin and the benchmarks do) reproduces the study's numbers for
// that rung.
func TestPopulationScenarioMatchesStudy(t *testing.T) {
	o := Options{Seed: 1, Scale: 0.02}
	study := PopulationStudy(o)
	world, clients := PopulationScenario(o, study.Sizes[1])
	direct := core.RunPopulation(world, clients)
	if got, want := direct.AggregateKBps, study.Results[1].AggregateKBps; got != want {
		t.Fatalf("direct rung aggregate %g != study aggregate %g", got, want)
	}
	if got, want := direct.JainFairness, study.Results[1].JainFairness; got != want {
		t.Fatalf("direct rung fairness %g != study fairness %g", got, want)
	}
}
