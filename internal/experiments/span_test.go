package experiments

import (
	"bytes"
	"testing"

	"spider/internal/core"
	"spider/internal/fleet"
	"spider/internal/obs"
)

// populationSpanJSONL runs the population study on a fresh pool with the
// given worker count and returns the merged span JSONL. Fresh pool per
// call for the same reason as chaosEventJSONL: the fleet result cache
// could otherwise satisfy the memoized study without re-running its jobs,
// leaving the collector empty.
func populationSpanJSONL(t *testing.T, workers int) []byte {
	t.Helper()
	pool := fleet.New(fleet.Config{Workers: workers})
	defer pool.Close()
	store := NewRunStore(true, false)
	o := Options{Seed: 1, Scale: 0.05, Fleet: pool.Group("population"), Runs: store}
	PopulationStudy(o)
	var buf bytes.Buffer
	if err := store.WriteSpans(&buf); err != nil {
		t.Fatalf("WriteSpans: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("no spans collected")
	}
	return buf.Bytes()
}

// TestSpanStreamWorkerInvariance extends the worker-invariance contract
// to spans: the merged span JSONL for the same (seed, scenario) must be
// byte-identical at 1, 4, and 16 workers. Span IDs derive from (client,
// seq), never randomness or scheduling, and the collector exports runs in
// sorted label order, so worker count cannot leak into the artifact.
func TestSpanStreamWorkerInvariance(t *testing.T) {
	base := populationSpanJSONL(t, 1)
	for _, w := range []int{4, 16} {
		if got := populationSpanJSONL(t, w); !bytes.Equal(got, base) {
			t.Errorf("span JSONL at workers=%d differs from workers=1", w)
		}
	}
}

// TestSpanStreamRepeatStable pins repeat-run determinism on one worker
// count: two collections of the same study are byte-identical.
func TestSpanStreamRepeatStable(t *testing.T) {
	a := populationSpanJSONL(t, 4)
	b := populationSpanJSONL(t, 4)
	if !bytes.Equal(a, b) {
		t.Error("span JSONL differs between repeat runs")
	}
}

// TestSpanTreeWellFormed checks structural invariants over population
// rungs: every span closes with End >= Start, every Parent resolves,
// children lie inside their parent's interval, and the join pipeline's
// child phases sum exactly — integer nanoseconds, no tolerance — to the
// join root's duration.
func TestSpanTreeWellFormed(t *testing.T) {
	o := Options{Seed: 1, Scale: 0.05}
	joins := 0
	for _, n := range []int{1, 8} {
		world, clients := PopulationScenario(o, n)
		rec := obs.NewRecorder()
		world.Obs = rec
		core.RunPopulation(world, clients)
		spans := rec.Spans()
		if len(spans) == 0 {
			t.Fatalf("n=%d: no spans", n)
		}
		byID := map[obs.SpanID]obs.Span{}
		for _, s := range spans {
			if s.Open() || s.End < s.Start {
				t.Fatalf("n=%d: span %d (%s) not closed properly: [%d,%d]", n, s.ID, s.Name, s.Start, s.End)
			}
			byID[s.ID] = s
		}
		childSum := map[obs.SpanID]int64{}
		for _, s := range spans {
			if s.Parent == 0 {
				continue
			}
			p, ok := byID[s.Parent]
			if !ok {
				t.Fatalf("n=%d: span %d (%s) has unresolved parent %d", n, s.ID, s.Name, s.Parent)
			}
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("n=%d: child %d (%s) [%d,%d] escapes parent %d (%s) [%d,%d]",
					n, s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
			}
			if p.Name == "join" {
				childSum[p.ID] += int64(s.Duration())
			}
		}
		for _, s := range spans {
			if s.Name != "join" {
				continue
			}
			joins++
			if childSum[s.ID] != int64(s.Duration()) {
				t.Errorf("n=%d: join %d phase sum %d != duration %d", n, s.ID, childSum[s.ID], s.Duration())
			}
		}
	}
	if joins == 0 {
		t.Fatal("no join spans validated")
	}
}
