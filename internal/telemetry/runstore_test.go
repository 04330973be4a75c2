package telemetry_test

import (
	"bytes"
	"testing"
	"time"

	"spider/internal/experiments"
	"spider/internal/obs"
	"spider/internal/telemetry"
)

// TestCollectorOrder: the run-label store that collects each experiment
// run's rollups (experiments.RunStore) exports them label-sorted
// regardless of filing order.
func TestCollectorOrder(t *testing.T) {
	const w = time.Second
	mk := func() *telemetry.Aggregator {
		a := telemetry.New(telemetry.Config{Window: w})
		a.Bind(obs.NewStreamingRecorder())
		a.Tick(w)
		a.Finish(w)
		return a
	}
	s1, s2 := experiments.NewRunStore(false, true), experiments.NewRunStore(false, true)
	x, y := mk(), mk()
	for _, f := range []struct {
		store *experiments.RunStore
		label string
		agg   *telemetry.Aggregator
	}{
		{s1, "b", y}, {s1, "a", x},
		{s2, "a", x}, {s2, "b", y},
	} {
		if err := f.store.File(f.label, nil, f.agg); err != nil {
			t.Fatal(err)
		}
	}
	var b1, b2 bytes.Buffer
	if err := s1.WriteRollups(&b1); err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteRollups(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.Len() == 0 {
		t.Fatal("rollup export is empty")
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("rollup export depends on filing order")
	}
	if _, _, _, windows := s1.Totals(); windows != 2 {
		t.Fatalf("window count: %d", windows)
	}
}
