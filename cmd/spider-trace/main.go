// Command spider-trace analyzes the span JSONL that spider-bench -spans
// (or any obs.WriteSpansJSONL caller) exports.
//
// Usage:
//
//	spider-trace -spans spans.jsonl
//	spider-trace -spans spans.jsonl -run 'population#n=8' -t 12s
//	spider-trace -spans spans.jsonl -chrome trace.json
//	spider-trace -rollups rollups.jsonl
//
// The report breaks join latency down by pipeline phase (scan, probe,
// auth, assoc, DHCP, connectivity test), compares the measured per-channel
// join probability with the paper's Eq. 5-7 prediction at the measured
// schedule fractions, aggregates per-channel and per-AP occupancy, and
// attributes outage time to cause. -chrome additionally writes a Chrome
// trace-event file loadable in Perfetto or chrome://tracing.
//
// -rollups switches to the telemetry plane's bounded-memory export
// (spider-bench -rollups, or GET /v1/rollups on spider-serve): a
// per-window breakdown with run-level quantiles re-derived from the
// merged window sketches, and SLO violation tallies. -run and -out apply
// as usual; -spans is not required.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"spider/internal/model"
	"spider/internal/sim"
	"spider/internal/tracereport"
)

func main() {
	var (
		spansPath   = flag.String("spans", "", "span JSONL file to analyze ('-' = stdin)")
		rollupsPath = flag.String("rollups", "", "rollup JSONL file to render instead ('-' = stdin)")
		runFilter   = flag.String("run", "", "restrict the report to one run label")
		outPath     = flag.String("out", "", "write the text report here (default stdout)")
		chrome      = flag.String("chrome", "", "also write a Chrome trace-event JSON file here")
		residence   = flag.Duration("t", 10*time.Second, "modeled time in AP range for the Eq. 5-7 comparison")
		betaMax     = flag.Duration("beta-max", time.Second, "modeled maximum DHCP timeout for the Eq. 5-7 comparison")
	)
	flag.Parse()
	if *rollupsPath != "" {
		rollupReport(*rollupsPath, *runFilter, *outPath)
		return
	}
	if *spansPath == "" {
		fmt.Fprintln(os.Stderr, "spider-trace: -spans or -rollups is required (path to JSONL, or '-' for stdin)")
		flag.Usage()
		os.Exit(2)
	}

	in := os.Stdin
	if *spansPath != "-" {
		f, err := os.Open(*spansPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	spans, err := tracereport.ReadSpans(in)
	if err != nil {
		fatal(err)
	}
	if *runFilter != "" {
		kept := spans[:0]
		for _, s := range spans {
			if s.Run == *runFilter {
				kept = append(kept, s)
			}
		}
		spans = kept
		if len(spans) == 0 {
			fatal(fmt.Errorf("no spans with run label %q", *runFilter))
		}
	}

	a := tracereport.Analyze(spans)
	report := a.Report(model.PaperParams(sim.Time(*betaMax)), sim.Time(*residence))
	if *outPath == "" {
		fmt.Print(report)
	} else if err := os.WriteFile(*outPath, []byte(report), 0o644); err != nil {
		fatal(err)
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fatal(err)
		}
		if err := tracereport.WriteChrome(f, spans); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# chrome trace written to %s\n", *chrome)
	}
}

// rollupReport renders the telemetry rollup export: every run in the
// file, or just the one named by runFilter.
func rollupReport(path, runFilter, outPath string) {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	rf, err := tracereport.ReadRollups(in)
	if err != nil {
		fatal(err)
	}
	runs := rf.Runs
	if runFilter != "" {
		if _, ok := rf.Windows[runFilter]; !ok {
			fatal(fmt.Errorf("no rollups with run label %q", runFilter))
		}
		runs = []string{runFilter}
	}
	var b strings.Builder
	for _, run := range runs {
		b.WriteString(rf.RollupReport(run))
	}
	if outPath == "" {
		fmt.Print(b.String())
	} else if err := os.WriteFile(outPath, []byte(b.String()), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spider-trace:", err)
	os.Exit(1)
}
