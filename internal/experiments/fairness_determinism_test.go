package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"spider/internal/alloc"
	"spider/internal/core"
	"spider/internal/fleet"
)

// fairnessJSONL runs both allocator variants over two population rungs on
// a fresh pool with the given worker count and returns the merged event
// and span JSONL streams. Fresh pool per call: the fleet result cache
// could otherwise satisfy a repeat run without executing its jobs.
func fairnessJSONL(t *testing.T, workers int) ([]byte, []byte) {
	t.Helper()
	pool := fleet.New(fleet.Config{Workers: workers})
	defer pool.Close()
	store := NewRunStore(true, false)
	o := Options{Seed: 1, Scale: 0.02, Fleet: pool.Group("fairness-det"), Runs: store}

	var runs []run
	var labels []string
	for _, v := range []alloc.Variant{alloc.Decentralized, alloc.Oracle} {
		for _, n := range []int{4, 16} {
			world, clients := FairnessScenario(o, n, v)
			runs = append(runs, run{world: world, clients: clients})
			labels = append(labels, fmt.Sprintf("fairness-det#arm=%s,n=%d", v, n))
		}
	}
	sweep(o, runs, func(i int) string { return labels[i] })

	var evs, spans bytes.Buffer
	if err := store.WriteEvents(&evs); err != nil {
		t.Fatalf("WriteEvents: %v", err)
	}
	if err := store.WriteSpans(&spans); err != nil {
		t.Fatalf("WriteSpans: %v", err)
	}
	if evs.Len() == 0 || spans.Len() == 0 {
		t.Fatalf("empty streams: events=%d spans=%d bytes", evs.Len(), spans.Len())
	}
	return evs.Bytes(), spans.Bytes()
}

// TestAllocatorStreamWorkerInvariance extends the byte-determinism
// contract to the allocator paths: with either variant steering clients —
// oracle epochs re-solving and re-pacing, decentralized policies sensing
// and re-pacing — the merged event and span JSONL must be byte-identical
// at 1, 4, and 16 workers. The allocator emits alloc.assign events and
// per-epoch world spans; any map iteration or scheduling leak in its
// epoch loop would surface here.
func TestAllocatorStreamWorkerInvariance(t *testing.T) {
	baseEvs, baseSpans := fairnessJSONL(t, 1)
	if !bytes.Contains(baseEvs, []byte("alloc.assign")) {
		t.Fatal("allocator emitted no alloc.assign events")
	}
	if !bytes.Contains(baseSpans, []byte("alloc")) {
		t.Fatal("oracle emitted no alloc epoch spans")
	}
	for _, w := range []int{4, 16} {
		evs, spans := fairnessJSONL(t, w)
		if !bytes.Equal(evs, baseEvs) {
			t.Errorf("event JSONL at workers=%d differs from workers=1", w)
		}
		if !bytes.Equal(spans, baseSpans) {
			t.Errorf("span JSONL at workers=%d differs from workers=1", w)
		}
	}
}

// TestAllocatorMonotoneBenefit pins the fairness frontier's ordering at
// the issue's collapse point: at 64 clients the oracle must be at least
// as fair as the decentralized policy, the decentralized policy strictly
// fairer than the selfish heuristic, and neither allocator may buy its
// fairness with aggregate goodput below the heuristic's.
func TestAllocatorMonotoneBenefit(t *testing.T) {
	o := Options{Seed: 1, Scale: 0.05}
	run := func(v alloc.Variant) core.PopulationResult {
		world, clients := FairnessScenario(o, 64, v)
		return core.RunPopulation(world, clients)
	}
	heur := run(0)
	dec := run(alloc.Decentralized)
	ora := run(alloc.Oracle)

	if !(ora.JainFairness >= dec.JainFairness && dec.JainFairness > heur.JainFairness) {
		t.Errorf("fairness not monotone: oracle %.3f, decentralized %.3f, heuristic %.3f",
			ora.JainFairness, dec.JainFairness, heur.JainFairness)
	}
	if ora.JainFairness < 0.90 {
		t.Errorf("oracle Jain %.3f below the 0.90 acceptance bar", ora.JainFairness)
	}
	if dec.AggregateKBps <= heur.AggregateKBps {
		t.Errorf("decentralized aggregate %.1f not above heuristic %.1f",
			dec.AggregateKBps, heur.AggregateKBps)
	}
	if ora.AggregateKBps <= heur.AggregateKBps {
		t.Errorf("oracle aggregate %.1f not above heuristic %.1f",
			ora.AggregateKBps, heur.AggregateKBps)
	}
}
