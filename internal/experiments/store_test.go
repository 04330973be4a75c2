package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"time"

	"spider/internal/fleet"
	"spider/internal/obs"
	"spider/internal/telemetry"
)

// exports renders a store's three artifacts.
func exports(t *testing.T, s *RunStore) (events, spans, rollups []byte) {
	t.Helper()
	var out [3]bytes.Buffer
	for i, write := range []func(io.Writer) error{s.WriteEvents, s.WriteSpans, s.WriteRollups} {
		if err := write(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out[0].Bytes(), out[1].Bytes(), out[2].Bytes()
}

// TestRunStoreOrderInvariance: every export depends only on the run
// labels, never on the order runs were filed in — the property that
// makes a fleet export worker-count invariant — and a label names one
// run: filing it again is refused.
func TestRunStoreOrderInvariance(t *testing.T) {
	const w = time.Second
	run := func(kind obs.Kind, span string) (*obs.Recorder, *telemetry.Aggregator) {
		rec := obs.NewRecorder()
		tel := telemetry.New(telemetry.Config{Window: w})
		tel.Bind(rec)
		rec.Client(0).Emit(obs.Event{At: 1, Kind: kind})
		rec.Client(0).StartSpan(1, span).End(2)
		tel.Tick(w)
		tel.Finish(w)
		return rec, tel
	}
	file := func(order []string) *RunStore {
		s := NewRunStore(true, true)
		runs := map[string]func() (*obs.Recorder, *telemetry.Aggregator){
			"a#0": func() (*obs.Recorder, *telemetry.Aggregator) { return run(obs.KindProbe, "join") },
			"a#1": func() (*obs.Recorder, *telemetry.Aggregator) { return run(obs.KindAuth, "outage") },
			"b#0": func() (*obs.Recorder, *telemetry.Aggregator) { return run(obs.KindAssoc, "link") },
		}
		for _, label := range order {
			rec, tel := runs[label]()
			if err := s.File(label, rec, tel); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	fwd := file([]string{"a#0", "a#1", "b#0"})
	rev := file([]string{"b#0", "a#0", "a#1"})
	fe, fs, fr := exports(t, fwd)
	re, rs, rr := exports(t, rev)
	for _, c := range []struct {
		name     string
		fwd, rev []byte
	}{{"events", fe, re}, {"spans", fs, rs}, {"rollups", fr, rr}} {
		if len(c.fwd) == 0 {
			t.Errorf("%s export is empty", c.name)
		}
		if !bytes.Equal(c.fwd, c.rev) {
			t.Errorf("%s export depends on filing order:\n%s\nvs\n%s", c.name, c.fwd, c.rev)
		}
	}
	if runs, events, spans, windows := fwd.Totals(); runs != 3 || events != 3 || spans != 3 || windows != 3 {
		t.Errorf("Totals = %d runs, %d events, %d spans, %d windows; want 3 of each", runs, events, spans, windows)
	}
	rec, tel := run(obs.KindProbe, "join")
	if err := fwd.File("a#1", rec, tel); err == nil {
		t.Fatal("a second run filed under a used label")
	}
	if fe2, fs2, fr2 := exports(t, fwd); !bytes.Equal(fe, fe2) || !bytes.Equal(fs, fs2) || !bytes.Equal(fr, fr2) {
		t.Error("a refused run changed the exports")
	}
}

// labelsIn returns each JSONL line's run label and, for span lines, the
// span ID, in file order.
func labelsIn(t *testing.T, b []byte) (labels []string, ids []obs.SpanID) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Run string     `json:"run"`
			ID  obs.SpanID `json:"id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		labels = append(labels, line.Run)
		ids = append(ids, line.ID)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return labels, ids
}

// TestEveryRunFiledUnderItsOwnLabel drives the ablation tables — whose
// seed sweeps once shared one label per seed — and the rush-hour study —
// whose runs once filed no rollups — with events, spans and rollups on.
// Every simulation run must file under a label of its own, span IDs must
// be unique within each label, and every label with spans must also have
// events and rollups. Running a table a second time into the same store
// must then fail the experiment instead of mixing two runs under a label.
func TestEveryRunFiledUnderItsOwnLabel(t *testing.T) {
	pool := fleet.New(fleet.Config{Workers: 4})
	defer pool.Close()
	group := pool.Group("run-path")
	store := NewRunStore(true, true)
	o := Options{Seed: 1, Scale: 0.05, Fleet: group, Runs: store}
	for _, table := range []func(Options) Table{
		AblationLeaseCache, AblationTimers, AblationInterfaces, AblationStriping,
		AblationAdaptive, AblationPredictive, AblationEnergy,
	} {
		table(o)
	}
	RushHourStudy(o)

	runs, _, _, _ := store.Totals()
	if jobs := group.Stats().Jobs; runs != jobs {
		t.Fatalf("%d simulation runs filed under %d labels", jobs, runs)
	}
	events, spans, rollups := exports(t, store)
	eventLabels, _ := labelsIn(t, events)
	spanLabels, spanIDs := labelsIn(t, spans)
	rollupLabels, _ := labelsIn(t, rollups)
	has := func(labels []string) map[string]bool {
		m := map[string]bool{}
		for _, l := range labels {
			m[l] = true
		}
		return m
	}
	withEvents, withRollups := has(eventLabels), has(rollupLabels)
	seen := map[string]bool{}
	perLabel := map[string]int{}
	for i, l := range spanLabels {
		key := fmt.Sprintf("%s/%d", l, spanIDs[i])
		if seen[key] {
			t.Fatalf("span ID %d appears twice under label %q", spanIDs[i], l)
		}
		seen[key] = true
		perLabel[l]++
	}
	if len(perLabel) != runs {
		t.Errorf("%d labels carry spans, want one per run (%d)", len(perLabel), runs)
	}
	for l := range perLabel {
		if !withEvents[l] || !withRollups[l] {
			t.Errorf("label %q has spans but events=%v rollups=%v", l, withEvents[l], withRollups[l])
		}
	}
	for _, l := range []string{"rushhour#single-pool", "ablation-vifs/n=4#1", "ablation-striping/single-ap#0"} {
		if perLabel[l] == 0 || !withRollups[l] {
			t.Errorf("run %q is missing from the export", l)
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("re-running a table into the same store did not fail")
			}
		}()
		AblationEnergy(o)
	}()
}
