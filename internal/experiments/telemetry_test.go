package experiments

import (
	"bytes"
	"strings"
	"testing"

	"spider/internal/core"
	"spider/internal/fleet"
	"spider/internal/obs"
	"spider/internal/telemetry"
)

// chaosRollupJSONL runs the chaos study on a fresh pool with the given
// worker count and returns the merged rollup JSONL. Fresh pool per call
// for the same reason as chaosEventJSONL: the result cache could satisfy
// the memoized study without re-running jobs, leaving the collector empty.
func chaosRollupJSONL(t *testing.T, workers int) []byte {
	t.Helper()
	pool := fleet.New(fleet.Config{Workers: workers})
	defer pool.Close()
	store := NewRunStore(false, true)
	o := Options{Seed: 1, Scale: 0.05, Fleet: pool.Group("chaos"), Runs: store}
	ChaosStudy(o)
	var buf bytes.Buffer
	if err := store.WriteRollups(&buf); err != nil {
		t.Fatalf("WriteRollups: %v", err)
	}
	if _, _, _, windows := store.Totals(); windows == 0 {
		t.Fatal("no rollup windows collected")
	}
	return buf.Bytes()
}

// TestRollupStreamWorkerInvariance is the rollup arm of the determinism
// contract: the merged rollup JSONL for the same (seed, scenario) must be
// byte-identical at 1, 4, and 16 workers. Windows aggregate sim-time-only
// quantities and the collector exports in sorted label order, so fleet
// scheduling cannot leak into the artifact.
func TestRollupStreamWorkerInvariance(t *testing.T) {
	base := chaosRollupJSONL(t, 1)
	for _, w := range []int{4, 16} {
		if got := chaosRollupJSONL(t, w); !bytes.Equal(got, base) {
			t.Errorf("rollup JSONL at workers=%d differs from workers=1", w)
		}
	}
}

// TestChaosSLOFires pins the health evaluator end to end on a fault
// workload: an outage SLO must transition to violating in some window,
// annotate that window, and emit a health event that the flight recorder
// keeps (health transitions are an always-keep class).
func TestChaosSLOFires(t *testing.T) {
	o := Options{Seed: 1, Scale: 0.05}
	world, client := ChaosScenario(o)
	tel := telemetry.New(telemetry.Config{
		Seed: 1,
		SLOs: []telemetry.SLORule{
			// Zero tolerance: any outage time in a window violates, so the
			// chaos plan's AP crashes are guaranteed to trip it.
			{Name: "outage-any", Signal: "outage_rate", Op: "max", Limit: 0},
		},
	})
	world.Telemetry = tel
	core.Run(world, client)

	violated := false
	for _, w := range tel.Windows() {
		for _, v := range w.Violations {
			if v == "outage-any" {
				violated = true
			}
		}
	}
	if !violated {
		t.Fatal("no window annotated with the outage-any violation")
	}
	found := false
	for _, ev := range tel.FlightEvents() {
		if ev.Kind == obs.KindHealthViolation {
			found = true
			if !strings.Contains(ev.Note, "outage-any outage_rate=") {
				t.Fatalf("health note %q missing rule/signal detail", ev.Note)
			}
			if ev.Value <= 0 {
				t.Fatalf("health event carries value %d, want the scaled signal", ev.Value)
			}
		}
	}
	if !found {
		t.Fatal("flight recorder kept no health.violation event")
	}
}

// TestTelemetryBoundedAtDense pins the bounded-memory contract on a dense
// city-scale rung shrunk to test size: with tight caps the aggregator
// must retain at most MaxWindows windows and at most the configured
// flight entries, count everything it sheds, and still finish the run.
func TestTelemetryBoundedAtDense(t *testing.T) {
	o := Options{Seed: 1, Scale: 0.05}
	world, clients := PopulationDenseScenario(o, 32)
	tel := telemetry.New(telemetry.Config{
		Seed:         1,
		MaxWindows:   4,
		FlightEvents: 64,
		FlightSpans:  64,
		KeepClients:  1,
		SLOs:         telemetry.DefaultSLOs(),
	})
	world.Telemetry = tel
	core.RunPopulation(world, clients)

	if n := len(tel.Windows()); n > 4 {
		t.Fatalf("retained %d windows, cap is 4", n)
	}
	if tel.DroppedWindows() == 0 {
		t.Fatal("60s run closed no windows past the cap of 4")
	}
	fc := tel.FlightCounters()
	if fc.EventsKept > 64 || fc.SpansKept > 64 {
		t.Fatalf("flight rings exceeded caps: %+v", fc)
	}
	if fc.EventsEvicted == 0 {
		t.Fatal("dense run evicted nothing from a 64-event ring")
	}
	if len(tel.FlightEvents()) != fc.EventsKept {
		t.Fatalf("FlightEvents length %d != kept %d", len(tel.FlightEvents()), fc.EventsKept)
	}
}
