package obs_test

import (
	"bytes"
	"testing"

	"spider/internal/experiments"
	"spider/internal/obs"
)

// The run-label store that collects each experiment run's event and span
// streams is experiments.RunStore; these tests pin the ordering contract
// it keeps for the streams a Recorder hands it.

// TestCollectorOrderInvariance: export order must depend only on run
// labels, not filing order — the property that makes fleet export
// worker-count invariant.
func TestCollectorOrderInvariance(t *testing.T) {
	mk := func(order []string) string {
		store := experiments.NewRunStore(true, false)
		streams := map[string]obs.Event{
			"a#0": {At: 1, Kind: obs.KindProbe},
			"a#1": {At: 2, Kind: obs.KindAuth},
			"a#2": {At: 3, Kind: obs.KindAssoc},
		}
		for _, label := range order {
			rec := obs.NewRecorder()
			rec.Client(0).Emit(streams[label])
			if err := store.File(label, rec, nil); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := store.WriteEvents(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	fwd := mk([]string{"a#0", "a#1", "a#2"})
	rev := mk([]string{"a#2", "a#0", "a#1"})
	if fwd == "" {
		t.Fatal("event export is empty")
	}
	if fwd != rev {
		t.Fatalf("event export depends on filing order:\n%s\nvs\n%s", fwd, rev)
	}
}

// TestCollectorSpans: span streams file under run labels and export in
// sorted label order, independent of filing order.
func TestCollectorSpans(t *testing.T) {
	recorded := func(name string) *obs.Recorder {
		rec := obs.NewRecorder()
		rec.Client(0).StartSpan(1, name).End(2)
		return rec
	}
	forward, reverse := experiments.NewRunStore(true, false), experiments.NewRunStore(true, false)
	for _, f := range []struct {
		store *experiments.RunStore
		label string
		span  string
	}{
		{forward, "a", "join"}, {forward, "b", "outage"},
		{reverse, "b", "outage"}, {reverse, "a", "join"},
	} {
		if err := f.store.File(f.label, recorded(f.span), nil); err != nil {
			t.Fatal(err)
		}
	}

	var fw, rv bytes.Buffer
	if err := forward.WriteSpans(&fw); err != nil {
		t.Fatal(err)
	}
	if err := reverse.WriteSpans(&rv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fw.Bytes(), rv.Bytes()) {
		t.Errorf("span export depends on filing order:\n%s\nvs\n%s", fw.String(), rv.String())
	}
	if _, _, spans, _ := forward.Totals(); spans != 2 {
		t.Errorf("span count = %d, want 2", spans)
	}
}
