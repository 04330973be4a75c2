package tracereport

import (
	"bytes"
	"io"
	"testing"
	"time"

	"spider/internal/model"
	"spider/internal/sim"
)

// FuzzReadSpans feeds arbitrary bytes through the span pipeline
// spider-trace runs on a file: ReadSpans, then — for anything it accepts —
// Analyze, the full Report and the Chrome trace export. None of them may
// panic: an accepted file can still hold dangling parents, inverted or
// overflowing intervals and duplicate IDs. The seed corpus in
// testdata/fuzz/FuzzReadSpans holds a real multi-run export, a join tree,
// truncations and hostile values.
func FuzzReadSpans(f *testing.F) {
	p := model.PaperParams(sim.Time(time.Second))
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := ReadSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		a := Analyze(spans)
		a.Report(p, sim.Time(10*time.Second))
		if err := WriteChrome(io.Discard, spans); err != nil {
			t.Fatalf("WriteChrome on accepted spans: %v", err)
		}
	})
}

// FuzzReadRollups does the same for the rollup pipeline of spider-trace
// -rollups: ReadRollups, then RollupReport for every run it found, which
// re-derives whole-run quantiles from the windows' sparse histograms. The
// seed corpus in testdata/fuzz/FuzzReadRollups holds real windows with
// histograms, per-AP and per-client rows, violations, the flight line and
// corruptions of each.
func FuzzReadRollups(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rf, err := ReadRollups(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, run := range rf.Runs {
			rf.RollupReport(run)
		}
	})
}
