package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/fleet"
	"spider/internal/obs"
)

// chaosEventJSONL runs the chaos study on a fresh pool with the given
// worker count and returns the merged event JSONL. A fresh pool per call
// matters: the fleet result cache could otherwise satisfy the memoized
// study without re-running its jobs, leaving the collector empty.
func chaosEventJSONL(t *testing.T, workers int) []byte {
	t.Helper()
	pool := fleet.New(fleet.Config{Workers: workers})
	defer pool.Close()
	store := NewRunStore(true, false)
	o := Options{Seed: 1, Scale: 0.05, Fleet: pool.Group("chaos"), Runs: store}
	ChaosStudy(o)
	var buf bytes.Buffer
	if err := store.WriteEvents(&buf); err != nil {
		t.Fatalf("WriteEvents: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("no events collected")
	}
	return buf.Bytes()
}

// TestEventStreamWorkerInvariance is the tentpole determinism check: the
// merged event JSONL for the same (seed, scenario) must be byte-identical
// at 1, 4, and 16 workers. Every run's stream is a pure function of its
// (seed, config), events order by (sim-time, client, seq), and the
// collector exports in sorted label order, so scheduling cannot leak in.
func TestEventStreamWorkerInvariance(t *testing.T) {
	base := chaosEventJSONL(t, 1)
	for _, w := range []int{4, 16} {
		if got := chaosEventJSONL(t, w); !bytes.Equal(got, base) {
			t.Errorf("event JSONL at workers=%d differs from workers=1", w)
		}
	}
}

// TestRecordingDisabledIdentity checks the zero-cost-when-off contract:
// running the chaos scenario with a recorder attached must produce the
// same simulation outcome as running it with recording disabled — the
// observability layer observes, it never steers.
func TestRecordingDisabledIdentity(t *testing.T) {
	o := Options{Seed: 1, Scale: 0.05}
	world, client := ChaosScenario(o)

	world.Obs = nil
	plain := core.Run(world, client)

	world.Obs = obs.NewRecorder()
	recorded := core.Run(world, client)
	if recorded.Events.Empty() {
		t.Fatal("recorded run reported no events")
	}
	recorded.Events = obs.Summary{} // the only field recording may differ in
	if !reflect.DeepEqual(plain, recorded) {
		t.Errorf("recording changed the simulation result:\nplain:    %+v\nrecorded: %+v", plain, recorded)
	}
}

// TestAppendixAManualClockStable pins the Clock seam: with a manual clock
// every wall-time read is deterministic, so the rendered table — timing
// columns included — must be byte-identical across runs.
func TestAppendixAManualClockStable(t *testing.T) {
	render := func() string {
		o := Options{Seed: 1, Scale: 0.05, Clock: obs.NewManual(25 * time.Microsecond)}
		return AppendixA(o).Render()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("AppendixA output not byte-stable under manual clock:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}
