package trace

import (
	"testing"

	"spider/internal/sim"
	"spider/internal/stats"
)

func TestSynthesizeCounts(t *testing.T) {
	cfg := DefaultMeshConfig()
	tr := Synthesize(sim.NewRNG(1), cfg)
	if len(tr.FlowDurations) != cfg.Flows {
		t.Fatalf("flows = %d, want %d", len(tr.FlowDurations), cfg.Flows)
	}
	if want := cfg.Flows - cfg.Users; len(tr.InterConnectionGaps) != want {
		t.Fatalf("gaps = %d, want %d", len(tr.InterConnectionGaps), want)
	}
}

func TestSynthesizeDistributionShape(t *testing.T) {
	cfg := DefaultMeshConfig()
	cfg.Flows = 20000
	tr := Synthesize(sim.NewRNG(2), cfg)
	durs := stats.NewCDF(tr.FlowDurations)
	// Median near the configured 2 s; most flows short, some long.
	if m := durs.Quantile(0.5); m < 1 || m > 4 {
		t.Fatalf("flow duration median = %v, want ≈2", m)
	}
	if p10 := durs.P(10); p10 < 0.75 {
		t.Fatalf("P(duration ≤ 10 s) = %v, want most flows short", p10)
	}
	if p90 := durs.Quantile(0.9); p90 < 8 {
		t.Fatalf("q90 = %v, want a tail", p90)
	}
	gaps := stats.NewCDF(tr.InterConnectionGaps)
	if m := gaps.Quantile(0.5); m < 5 || m > 20 {
		t.Fatalf("gap median = %v, want ≈10", m)
	}
	// Truncation holds.
	if durs.Quantile(1) > cfg.MaxDuration || gaps.Quantile(1) > cfg.MaxGap {
		t.Fatal("truncation violated")
	}
}

func TestSynthesizeDeterminism(t *testing.T) {
	cfg := DefaultMeshConfig()
	cfg.Flows = 1000
	a := Synthesize(sim.NewRNG(7), cfg)
	b := Synthesize(sim.NewRNG(7), cfg)
	for i := range a.FlowDurations {
		if a.FlowDurations[i] != b.FlowDurations[i] {
			t.Fatal("non-deterministic trace")
		}
	}
}

// TestSynthesizeFewerFlowsThanUsers is the regression test for the
// negative-capacity panic: with 0 < Flows < Users, the gap slice
// capacity used to go negative. Sparse populations are legitimate (each
// user gets 0 or 1 flows, so no inter-connection gaps exist).
func TestSynthesizeFewerFlowsThanUsers(t *testing.T) {
	for _, tc := range []struct{ users, flows int }{
		{161, 1},
		{161, 160},
		{10, 3},
		{2, 1},
		{1, 1},
	} {
		cfg := DefaultMeshConfig()
		cfg.Users = tc.users
		cfg.Flows = tc.flows
		tr := Synthesize(sim.NewRNG(5), cfg)
		if len(tr.FlowDurations) != tc.flows {
			t.Fatalf("users=%d flows=%d: got %d durations", tc.users, tc.flows, len(tr.FlowDurations))
		}
		if len(tr.InterConnectionGaps) != 0 {
			t.Fatalf("users=%d flows=%d: got %d gaps, want 0 (no user has two flows)",
				tc.users, tc.flows, len(tr.InterConnectionGaps))
		}
	}
	// Just past the boundary: one user gets a second flow, one gap.
	cfg := DefaultMeshConfig()
	cfg.Users = 10
	cfg.Flows = 11
	if tr := Synthesize(sim.NewRNG(5), cfg); len(tr.InterConnectionGaps) != 1 {
		t.Fatalf("flows=users+1: got %d gaps, want 1", len(tr.InterConnectionGaps))
	}
}

func TestSynthesizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero users did not panic")
		}
	}()
	Synthesize(sim.NewRNG(1), MeshConfig{})
}
