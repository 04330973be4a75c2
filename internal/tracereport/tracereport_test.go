package tracereport

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/experiments"
	"spider/internal/model"
	"spider/internal/obs"
	"spider/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// chaosSpans runs the fixed-seed chaos scenario — the span-densest
// workload: joins, occupancy, links, chaos-attributed outages, fault
// spans — and round-trips the recorder's spans through the JSONL
// writer/reader pair, so the reader is exercised on real output.
func chaosSpans(t *testing.T) []TraceSpan {
	t.Helper()
	world, client := experiments.ChaosScenario(experiments.Options{Seed: 1, Scale: 0.05})
	rec := obs.NewRecorder()
	world.Obs = rec
	core.Run(world, client)

	var buf bytes.Buffer
	if err := obs.WriteSpansJSONL(&buf, "chaos#0", rec.Spans()); err != nil {
		t.Fatalf("WriteSpansJSONL: %v", err)
	}
	spans, err := ReadSpans(&buf)
	if err != nil {
		t.Fatalf("ReadSpans: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	return spans
}

// TestReportGolden pins the full rendered report for a fixed-seed run.
// Refresh with: go test ./internal/tracereport -run TestReportGolden -update
func TestReportGolden(t *testing.T) {
	spans := chaosSpans(t)
	report := Analyze(spans).Report(model.PaperParams(sim.Time(time.Second)), sim.Time(10*time.Second))

	golden := filepath.Join("testdata", "chaos_report.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if report != string(want) {
		t.Errorf("report drifted from golden (re-run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", report, want)
	}
}

// TestPhaseSumExactness asserts the tentpole accounting invariant on real
// traces: each join root's child-phase durations sum exactly — in integer
// nanoseconds, no tolerance — to the root's duration.
func TestPhaseSumExactness(t *testing.T) {
	spans := chaosSpans(t)
	js, phases := Analyze(spans).JoinBreakdown()
	if js.Attempts == 0 {
		t.Fatal("no join attempts in trace")
	}
	if js.SumMismatches != 0 {
		t.Errorf("phase durations do not sum to join root duration in %d/%d joins", js.SumMismatches, js.Attempts)
	}
	var phaseTotal, rootTotal sim.Time
	for _, ps := range phases {
		phaseTotal += ps.Total
	}
	rootTotal = js.TotalLatency
	if phaseTotal != rootTotal {
		t.Errorf("aggregate phase time %d != aggregate join time %d", phaseTotal, rootTotal)
	}
}

// TestReadSpansRejectsGarbage pins strict parsing: a corrupt line is an
// error, not a silent skip.
func TestReadSpansRejectsGarbage(t *testing.T) {
	in := bytes.NewBufferString(`{"id":1,"client":0,"name":"join","start_ns":0,"end_ns":5}` + "\nnot json\n")
	if _, err := ReadSpans(in); err == nil {
		t.Fatal("ReadSpans accepted a malformed line")
	}
}

// TestAnalyzeResolvesParentsPerRun checks that identical span IDs in
// different runs do not cross-link: each run is its own ID namespace.
func TestAnalyzeResolvesParentsPerRun(t *testing.T) {
	mk := func(run string, id, parent obs.SpanID, name string, start, end sim.Time) TraceSpan {
		return TraceSpan{Run: run, Span: obs.Span{ID: id, Parent: parent, Name: name, Start: start, End: end, Status: "complete"}}
	}
	spans := []TraceSpan{
		mk("a", obs.MakeSpanID(0, 1), 0, "join", 0, 10),
		mk("a", obs.MakeSpanID(0, 2), obs.MakeSpanID(0, 1), "scan", 0, 10),
		mk("b", obs.MakeSpanID(0, 1), 0, "join", 0, 20),
		mk("b", obs.MakeSpanID(0, 2), obs.MakeSpanID(0, 1), "scan", 0, 20),
	}
	js, phases := Analyze(spans).JoinBreakdown()
	if js.Attempts != 2 || js.Completes != 2 {
		t.Fatalf("attempts=%d completes=%d, want 2/2", js.Attempts, js.Completes)
	}
	if js.SumMismatches != 0 {
		t.Errorf("cross-run parent resolution broke phase sums: %d mismatches", js.SumMismatches)
	}
	if len(phases) != 1 || phases[0].Name != "scan" || phases[0].Count != 2 || phases[0].Total != 30 {
		t.Errorf("unexpected phase stats: %+v", phases)
	}
}

// TestChromeExport sanity-checks the trace-event output: every span lands
// as one complete event under its run's pid, and the export is
// byte-stable across calls.
func TestChromeExport(t *testing.T) {
	spans := chaosSpans(t)
	var a, b bytes.Buffer
	if err := WriteChrome(&a, spans); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := WriteChrome(&b, spans); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("chrome export not byte-stable")
	}
	if n := bytes.Count(a.Bytes(), []byte(`"ph":"X"`)); n != len(spans) {
		t.Errorf("chrome export has %d complete events, want %d", n, len(spans))
	}
}
