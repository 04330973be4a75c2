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
// annotate that window, and emit a health event that a retaining recorder
// keeps.
func TestChaosSLOFires(t *testing.T) {
	o := Options{Seed: 1, Scale: 0.05}
	world, client := ChaosScenario(o)
	tel := telemetry.New(telemetry.Config{
		SLOs: []telemetry.SLORule{
			// Zero tolerance: any outage time in a window violates, so the
			// chaos plan's AP crashes are guaranteed to trip it.
			{Name: "outage-any", Signal: "outage_rate", Op: "max", Limit: 0},
		},
	})
	rec := obs.NewRecorder()
	world.Obs, world.Telemetry = rec, tel
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
	for _, ev := range rec.Events() {
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
		t.Fatal("recorder kept no health.violation event")
	}
}

// TestTelemetryBoundedAtDense pins the bounded-memory contract on a dense
// city-scale rung shrunk to test size: with a tight cap the aggregator
// must retain at most MaxWindows windows, count the windows it sheds, and
// still finish the run.
func TestTelemetryBoundedAtDense(t *testing.T) {
	o := Options{Seed: 1, Scale: 0.05}
	world, clients := PopulationDenseScenario(o, 32)
	tel := telemetry.New(telemetry.Config{MaxWindows: 4, SLOs: telemetry.DefaultSLOs()})
	world.Telemetry = tel
	core.RunPopulation(world, clients)

	if n := len(tel.Windows()); n > 4 {
		t.Fatalf("retained %d windows, cap is 4", n)
	}
	if tel.DroppedWindows() == 0 {
		t.Fatal("60s run closed no windows past the cap of 4")
	}
}

// TestTelemetryStreamCarriesNoChattyKinds: on a telemetry-only dense
// rung the streaming recorder's subscribers see no chatty kind (probe,
// auth, assoc), while the events the rollups fold still arrive.
func TestTelemetryStreamCarriesNoChattyKinds(t *testing.T) {
	world, clients := PopulationDenseScenario(Options{Seed: 1, Scale: 0.05}, 256)
	rec := obs.NewStreamingRecorder()
	var kinds [obs.NumKinds]int
	rec.Subscribe(func(e obs.Event) { kinds[e.Kind]++ })
	world.Obs = rec
	world.Telemetry = telemetry.New(telemetry.Config{SLOs: telemetry.DefaultSLOs()})
	core.RunPopulation(world, clients)

	for _, k := range []obs.Kind{obs.KindProbe, obs.KindAuth, obs.KindAssoc} {
		if kinds[k] != 0 {
			t.Errorf("%d %s events reached the streaming recorder's subscribers", kinds[k], k)
		}
	}
	if kinds[obs.KindJoinStart] == 0 {
		t.Fatal("no join-start event reached the subscribers")
	}
}
