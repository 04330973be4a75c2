// Command spider-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	spider-bench -list
//	spider-bench -run all -scale 0.2
//	spider-bench -run fig2,table2 -format csv -out results/
//	spider-bench -run all -workers 8 -progress -timings results/bench_timings.json
//	spider-bench -run chaos -events out.jsonl -pprof localhost:6060
//	spider-bench -run population -spans spans.jsonl   (analyze with spider-trace)
//	spider-bench -run chaos -rollups rollups.jsonl    (analyze with spider-trace -rollups)
//	spider-bench -run none -benchgate BENCH_population.json
//	spider-bench -run none -teloverhead results/telemetry-overhead.txt
//
// Each experiment is deterministic in -seed. -scale in (0,1] trades
// fidelity for runtime (1.0 reproduces the full paper-scale runs).
//
// Independent simulation runs are sharded across a bounded worker pool
// (internal/fleet). Every job derives its own seed and results merge in
// canonical order, so output is byte-identical for any -workers value;
// -workers 1 reproduces the fully sequential runner. A panicking run is
// isolated to its experiment: the failure is reported on stderr and the
// remaining experiments still complete (exit status 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"spider/internal/atomicwrite"
	"spider/internal/benchgate"
	"spider/internal/core"
	"spider/internal/experiments"
	"spider/internal/fleet"
	"spider/internal/obs"
	"spider/internal/telemetry"
)

type renderable interface {
	Render() string
	CSV() string
}

type experiment struct {
	id   string
	desc string
	run  func(experiments.Options) []renderable
}

func one(r renderable) []renderable { return []renderable{r} }

// town routes every town-derived experiment through the fleet result
// cache: TownStudy memoizes itself under its canonical options key, so
// Table 2/4, Figures 11-13/16-17, and the AP-density summary share one
// computation however many of them run, in whatever order.
func town(o experiments.Options) *experiments.TownResults {
	return experiments.TownStudy(o)
}

var registry = []experiment{
	{"fig2", "join model vs simulation", func(o experiments.Options) []renderable { return one(experiments.Figure2(o)) }},
	{"fig3", "join probability vs βmax", func(o experiments.Options) []renderable { return one(experiments.Figure3(o)) }},
	{"fig4", "optimal bandwidth vs speed (3 splits + dividing speeds)", func(o experiments.Options) []renderable {
		var out []renderable
		for _, f := range experiments.Figure4(o) {
			out = append(out, f)
		}
		out = append(out, experiments.DividingSpeeds(o))
		return out
	}},
	{"fig5", "association time vs schedule fraction", func(o experiments.Options) []renderable { return one(experiments.Figure5(o)) }},
	{"fig6", "dhcp lease time vs schedule and timeout", func(o experiments.Options) []renderable { return one(experiments.Figure6(o)) }},
	{"fig7", "TCP throughput vs primary-channel fraction", func(o experiments.Options) []renderable { return one(experiments.Figure7(o)) }},
	{"fig8", "TCP throughput vs absolute dwell", func(o experiments.Options) []renderable { return one(experiments.Figure8(o)) }},
	{"table1", "channel switch latency", func(o experiments.Options) []renderable { return one(experiments.Table1(o)) }},
	{"fig10", "throughput vs backhaul bandwidth", func(o experiments.Options) []renderable { return one(experiments.Figure10(o)) }},
	{"table2", "throughput/connectivity by configuration", func(o experiments.Options) []renderable { return one(experiments.Table2(town(o))) }},
	{"fig11", "connection duration CDFs", func(o experiments.Options) []renderable { return one(experiments.Figure11(town(o))) }},
	{"fig12", "disruption length CDFs", func(o experiments.Options) []renderable { return one(experiments.Figure12(town(o))) }},
	{"fig13", "instantaneous bandwidth CDFs", func(o experiments.Options) []renderable { return one(experiments.Figure13(town(o))) }},
	{"table3", "dhcp failure probabilities", func(o experiments.Options) []renderable { return one(experiments.Table3(o)) }},
	{"fig14", "join time vs dhcp timeout", func(o experiments.Options) []renderable { return one(experiments.Figure14(o)) }},
	{"fig15", "join time vs scheduling policy", func(o experiments.Options) []renderable { return one(experiments.Figure15(o)) }},
	{"table4", "throughput/connectivity by channel count", func(o experiments.Options) []renderable { return one(experiments.Table4(town(o))) }},
	{"fig16", "user vs Spider connection lengths", func(o experiments.Options) []renderable { return one(experiments.Figure16(o, town(o))) }},
	{"fig17", "user vs Spider disruption lengths", func(o experiments.Options) []renderable { return one(experiments.Figure17(o, town(o))) }},
	{"apdensity", "time at k concurrent APs (Section 4.4)", func(o experiments.Options) []renderable { return one(experiments.APDensity(town(o))) }},
	{"appendixa", "multi-AP selection solver ablation", func(o experiments.Options) []renderable { return one(experiments.AppendixA(o)) }},
	{"chaos", "fault-injection sweep: recovery time and goodput retention", func(o experiments.Options) []renderable {
		cr := experiments.ChaosStudy(o)
		return []renderable{experiments.ChaosTable(cr), experiments.ChaosRecoveryFigure(cr)}
	}},
	{"population", "N-client scaling on a shared corridor: aggregate goodput, fairness, DHCP pool pressure", func(o experiments.Options) []renderable {
		r := experiments.PopulationStudy(o)
		return []renderable{experiments.PopulationTable(r), experiments.PopulationFigure(r)}
	}},
	{"fairness", "fairness frontier: heuristic vs decentralized vs oracle PF allocation across the population ladder", func(o experiments.Options) []renderable {
		r := experiments.FairnessStudy(o)
		return []renderable{experiments.FairnessTable(r), experiments.FairnessJainFigure(r), experiments.FairnessGoodputFigure(r)}
	}},
	{"rushhour", "address-exhaustion rush: lease churn through shared IPAM pools, with/without failover and GC", func(o experiments.Options) []renderable {
		r := experiments.RushHourStudy(o)
		return []renderable{experiments.RushHourTable(r), experiments.RushHourFigure(r)}
	}},
	{"ablation", "design-choice ablations (lease cache, timers, vifs, striping, adaptive, predictive, energy)", func(o experiments.Options) []renderable {
		return []renderable{
			experiments.AblationLeaseCache(o),
			experiments.AblationTimers(o),
			experiments.AblationInterfaces(o),
			experiments.AblationStriping(o),
			experiments.AblationAdaptive(o),
			experiments.AblationPredictive(o),
			experiments.AblationEnergy(o),
		}
	}},
}

// outcome collects one experiment's results for in-order emission.
type outcome struct {
	outputs []renderable
	err     error
	wall    time.Duration
	stats   fleet.GroupStats
	done    chan struct{}
}

// timingRecord is one experiment's machine-readable timing line.
type timingRecord struct {
	ID   string `json:"id"`
	Jobs int    `json:"jobs"`
	// Failed counts jobs that panicked or were canceled.
	Failed    int `json:"failed,omitempty"`
	CacheHits int `json:"cache_hits"`
	// JobWallMS is the summed wall time of the experiment's fleet jobs —
	// the cost a sequential runner would have paid for them.
	JobWallMS float64 `json:"job_wall_ms"`
	// WallMS is the experiment's observed wall time on the shared pool.
	WallMS float64 `json:"wall_ms"`
	Error  string  `json:"error,omitempty"`
}

// timingsFile seeds the repo's performance trajectory: one record per
// experiment plus enough host context to compare runs.
type timingsFile struct {
	Seed        int64          `json:"seed"`
	Scale       float64        `json:"scale"`
	Workers     int            `json:"workers"`
	NumCPU      int            `json:"num_cpu"`
	TotalJobs   int            `json:"total_jobs"`
	CacheHits   int            `json:"cache_hits"`
	TotalWallMS float64        `json:"total_wall_ms"`
	Experiments []timingRecord `json:"experiments"`
}

func main() {
	var (
		runList  = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		list     = flag.Bool("list", false, "list experiments and exit")
		seed     = flag.Int64("seed", 1, "random seed")
		scale    = flag.Float64("scale", 1.0, "fidelity scale in (0,1]")
		format   = flag.String("format", "text", "output format: text or csv")
		outDir   = flag.String("out", "", "directory to write one file per experiment (default stdout)")
		workers  = flag.Int("workers", runtime.NumCPU(), "parallel simulation workers (1 = fully sequential)")
		progress = flag.Bool("progress", false, "report fleet progress (jobs, cache, ETA) on stderr")
		timings  = flag.String("timings", "", "write machine-readable per-experiment timings JSON to this file")
		popjson  = flag.String("popjson", "", "benchmark the population ladder (1/8/64 classic rungs, a 32-client ipam-enabled rung, and dense-stagger 256/1024 city-scale rungs) and write goodput, ns/op, and allocs JSON to this file")
		gate     = flag.String("benchgate", "", "re-measure the population benchmark and exit non-zero if it regressed past -benchgate-threshold vs this baseline JSON (at default -seed/-scale, gates against the baseline's own workload)")
		gateThr  = flag.Float64("benchgate-threshold", 0.15, "relative regression tolerated by -benchgate (0.15 = 15%)")
		allocThr = flag.Float64("benchgate-alloc-threshold", benchgate.DefaultAllocThreshold, "stricter relative growth tolerated for the deterministic allocation metrics (0.05 = 5%)")
		events   = flag.String("events", "", "record every simulation run's structured event stream and write merged JSONL to this file")
		spansOut = flag.String("spans", "", "record every simulation run's causal spans and write merged JSONL to this file (analyze with spider-trace)")
		pprofSrv = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
		obsOver  = flag.String("obsoverhead", "", "measure event-recording overhead on the chaos scenario and write the report to this file")
		rollups  = flag.String("rollups", "", "attach the telemetry plane to every simulation run and write merged rollup JSONL to this file (analyze with spider-trace -rollups)")
		telOver  = flag.String("teloverhead", "", "measure telemetry-plane overhead on the 1024-client dense rung and write the report to this file")
	)
	flag.Parse()
	if *workers <= 0 {
		*workers = runtime.NumCPU() // match the pool's own default; 0 would wedge the launcher
	}

	if *list {
		for _, e := range registry {
			fmt.Printf("%-10s %s\n", e.id, e.desc)
		}
		return
	}
	want := map[string]bool{}
	if *runList != "all" && *runList != "none" {
		for _, id := range strings.Split(*runList, ",") {
			want[strings.TrimSpace(id)] = true
		}
		var known []string
		for _, e := range registry {
			known = append(known, e.id)
		}
		sort.Strings(known)
		for id := range want {
			found := false
			for _, k := range known {
				if k == id {
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, strings.Join(known, ", "))
				os.Exit(2)
			}
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *pprofSrv != "" {
		go func() {
			if err := http.ListenAndServe(*pprofSrv, nil); err != nil {
				fmt.Fprintf(os.Stderr, "# pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "# pprof serving on http://%s/debug/pprof/\n", *pprofSrv)
	}

	var onEvent func(fleet.Event)
	if *progress {
		onEvent = progressPrinter()
	}
	pool := fleet.New(fleet.Config{Workers: *workers, Retries: 1, OnEvent: onEvent})
	defer pool.Close()

	// One collector shared by every experiment: each run files its event
	// stream under a canonical job label, and export is in sorted label
	// order, so the JSONL is byte-identical at any -workers value.
	var collector *obs.Collector
	if *events != "" || *spansOut != "" {
		collector = obs.NewCollector()
	}
	// Likewise one rollup collector: each run's telemetry aggregator files
	// its closed windows under the job label, merged in sorted order.
	var rollupCollector *telemetry.Collector
	if *rollups != "" {
		rollupCollector = telemetry.NewCollector()
	}

	var selected []experiment
	for _, e := range registry {
		if *runList != "all" && !want[e.id] {
			continue
		}
		selected = append(selected, e)
	}

	// SIGINT/SIGTERM turn into a graceful flush: experiments that already
	// finished still emit their results (atomically — a signal can never
	// leave a truncated artifact), unfinished ones are skipped, and the
	// process exits 128+signal instead of dying mid-write.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	var gotSig os.Signal

	// Experiments launch concurrently (bounded by the worker count) and
	// shard their simulation runs on the shared pool; emission below waits
	// on each in registry order, so stdout is byte-identical to a
	// sequential run.
	totalStart := time.Now()
	outcomes := make([]*outcome, len(selected))
	sem := make(chan struct{}, *workers)
	for i, e := range selected {
		oc := &outcome{done: make(chan struct{})}
		outcomes[i] = oc
		go func(e experiment, oc *outcome) {
			sem <- struct{}{}
			defer func() { <-sem }()
			group := pool.Group(e.id)
			opts := experiments.Options{Seed: *seed, Scale: *scale, Fleet: group, Events: collector, Rollups: rollupCollector}
			start := time.Now()
			defer func() {
				if r := recover(); r != nil {
					if err, ok := r.(error); ok {
						oc.err = err
					} else {
						oc.err = fmt.Errorf("%v", r)
					}
				}
				oc.wall = time.Since(start)
				oc.stats = group.Stats()
				close(oc.done)
			}()
			oc.outputs = e.run(opts)
		}(e, oc)
	}

	failures := 0
	skipped := 0
	var records []timingRecord
	for i, e := range selected {
		oc := outcomes[i]
		if gotSig == nil {
			select {
			case <-oc.done:
			case s := <-sigCh:
				gotSig = s
				fmt.Fprintf(os.Stderr, "# %v: flushing completed experiments and exiting\n", s)
			}
		}
		if gotSig != nil {
			// Only emit what already finished; never block on the rest.
			select {
			case <-oc.done:
			default:
				skipped++
				continue
			}
		}
		rec := timingRecord{
			ID:        e.id,
			Jobs:      oc.stats.Jobs,
			Failed:    oc.stats.Failed,
			CacheHits: oc.stats.CacheHits,
			JobWallMS: float64(oc.stats.JobWall.Microseconds()) / 1000,
			WallMS:    float64(oc.wall.Microseconds()) / 1000,
		}
		if oc.err != nil {
			failures++
			rec.Error = oc.err.Error()
			records = append(records, rec)
			fmt.Fprintf(os.Stderr, "# %s FAILED: %v\n", e.id, oc.err)
			continue
		}
		records = append(records, rec)
		for j, r := range oc.outputs {
			var body string
			ext := "txt"
			if *format == "csv" {
				body = r.CSV()
				ext = "csv"
			} else {
				body = r.Render()
			}
			if *outDir == "" {
				fmt.Print(body)
				fmt.Println()
				continue
			}
			name := e.id
			if len(oc.outputs) > 1 {
				name = fmt.Sprintf("%s-%d", e.id, j)
			}
			path := filepath.Join(*outDir, name+"."+ext)
			if err := atomicwrite.WriteFile(path, []byte(body), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Fprintf(os.Stderr, "# %s done in %v\n", e.id, oc.wall.Round(time.Millisecond))
	}

	if *events != "" {
		if err := writeArtifact(*events, collector.WriteJSONL); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# %d events (%d runs) written to %s\n",
			collector.Summary().Total(), len(collector.Runs()), *events)
	}
	if *spansOut != "" {
		if err := writeArtifact(*spansOut, collector.WriteSpansJSONL); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# %d spans (%d runs) written to %s\n",
			collector.SpanCount(), len(collector.SpanRuns()), *spansOut)
	}
	if *rollups != "" {
		if err := writeArtifact(*rollups, rollupCollector.WriteJSONL); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# %d rollup windows (%d runs) written to %s\n",
			rollupCollector.WindowCount(), len(rollupCollector.Runs()), *rollups)
	}
	if *telOver != "" && gotSig == nil {
		if err := writeTelemetryOverhead(*telOver, *seed, *scale); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# telemetry overhead report written to %s\n", *telOver)
	}
	if *obsOver != "" && gotSig == nil {
		if err := writeObsOverhead(*obsOver, *seed, *scale); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# obs overhead report written to %s\n", *obsOver)
	}
	if *timings != "" {
		tf := timingsFile{
			Seed:        *seed,
			Scale:       *scale,
			Workers:     pool.Workers(),
			NumCPU:      runtime.NumCPU(),
			TotalWallMS: float64(time.Since(totalStart).Microseconds()) / 1000,
			Experiments: records,
		}
		for _, r := range records {
			tf.TotalJobs += r.Jobs
			tf.CacheHits += r.CacheHits
		}
		if err := writeJSON(*timings, tf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# timings written to %s\n", *timings)
	}
	if *popjson != "" && gotSig == nil {
		if err := writePopulationBench(*popjson, *seed, *scale); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# population bench written to %s\n", *popjson)
	}
	if *gate != "" && gotSig == nil {
		report, ok, err := runBenchGate(*gate, *seed, *scale, *gateThr, *allocThr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(report)
		if !ok {
			os.Exit(1)
		}
	}
	if gotSig != nil {
		fmt.Fprintf(os.Stderr, "# interrupted by %v: %d experiment(s) flushed, %d skipped\n",
			gotSig, len(records), skipped)
		code := 1
		if s, ok := gotSig.(syscall.Signal); ok {
			code = 128 + int(s)
		}
		os.Exit(code)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "# %d experiment(s) failed\n", failures)
		os.Exit(1)
	}
}

// measurePopulation runs the population benchmark ladder inline (no
// fleet: one run per rung, timed alone) and samples each rung's goodput,
// wall time, and allocation counts — the measurement behind both -popjson
// (record a baseline) and -benchgate (compare against one). Each rung
// reports the minimum over a few trials: the simulation is deterministic,
// so the minimum is the least-noise estimate of its true cost and keeps
// scheduler jitter from tripping the regression gate.
// The 32-client rung swaps in the production IPAM plan (shared pool
// hierarchy, backup failover, sim-time lease GC) under the same radio
// workload, so address-management cost regressions gate independently of
// the plain data-path rungs. The 256 and 1024 rungs use the dense-stagger
// city-scale scenario (the classic 1.5 s spacing would leave most of the
// population off the road) and run a single trial — at that size the run
// is long enough that scheduler jitter is a rounding error. Rungs match
// by client count and benchgate ignores rungs present in only one file,
// so older baselines that predate a rung still compare cleanly.
func measurePopulation(seed int64, scale float64) benchgate.File {
	o := experiments.Options{Seed: seed, Scale: scale}
	out := benchgate.File{Seed: seed, Scale: scale, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	rungs := []struct {
		n         int
		trials    int
		scenario  func(experiments.Options, int) (core.WorldConfig, []core.ClientConfig)
		telemetry bool
	}{
		{1, 3, experiments.PopulationScenario, false},
		{8, 3, experiments.PopulationScenario, false},
		{32, 3, experiments.PopulationIPAMScenario, false},
		{64, 3, experiments.PopulationScenario, false},
		{256, 1, experiments.PopulationDenseScenario, false},
		// The 512 rung runs the dense scenario with the full telemetry
		// plane attached (streaming recorder, rollups, flight recorder,
		// SLO evaluation), so telemetry-path cost regressions gate
		// independently of the bare data-path rungs. Matched by client
		// count like every other rung — 512 is unique to this arm.
		{512, 1, experiments.PopulationDenseScenario, true},
		{1024, 1, experiments.PopulationDenseScenario, false},
	}
	for _, rung := range rungs {
		n := rung.n
		var rec benchgate.Record
		for trial := 0; trial < rung.trials; trial++ {
			world, clients := rung.scenario(o, n)
			if rung.telemetry {
				world.Telemetry = telemetry.New(telemetry.Config{Seed: seed, SLOs: telemetry.DefaultSLOs()})
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			p := core.RunPopulation(world, clients)
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			sample := benchgate.Record{
				Clients:       n,
				Telemetry:     rung.telemetry,
				AggregateKBps: p.AggregateKBps,
				JainFairness:  p.JainFairness,
				WallNS:        wall.Nanoseconds(),
				NSPerClient:   wall.Nanoseconds() / int64(n),
				Allocs:        after.Mallocs - before.Mallocs,
				AllocBytes:    after.TotalAlloc - before.TotalAlloc,
			}
			if trial == 0 || sample.WallNS < rec.WallNS {
				rec.WallNS, rec.NSPerClient = sample.WallNS, sample.NSPerClient
			}
			if trial == 0 || sample.Allocs < rec.Allocs {
				rec.Allocs, rec.AllocBytes = sample.Allocs, sample.AllocBytes
			}
			rec.Clients = sample.Clients
			rec.Telemetry = sample.Telemetry
			rec.AggregateKBps = sample.AggregateKBps
			rec.JainFairness = sample.JainFairness
		}
		rec.AllocsPerClient = rec.Allocs / uint64(n)
		fmt.Fprintf(os.Stderr, "# population bench: clients=%-4d wall=%v allocs=%d (%d/client)\n",
			n, time.Duration(rec.WallNS).Round(time.Millisecond), rec.Allocs, rec.AllocsPerClient)
		out.Records = append(out.Records, rec)
	}
	return out
}

// writePopulationBench records a fresh population baseline file.
func writePopulationBench(path string, seed int64, scale float64) error {
	return writeJSON(path, measurePopulation(seed, scale))
}

// writeJSON writes v as indented JSON through writeArtifact.
func writeJSON(path string, v any) error {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeArtifact(path, func(w io.Writer) error {
		_, err := w.Write(append(body, '\n'))
		return err
	})
}

// runBenchGate measures the population rungs fresh, compares them against
// the committed baseline, and returns the rendered verdict plus whether
// the gate passed. Wall-time comparisons only mean something on hardware
// comparable to the baseline's; CI re-records its baseline on the same
// machine before gating.
func runBenchGate(baselinePath string, seed int64, scale float64, threshold, allocThreshold float64) (string, bool, error) {
	baseline, err := benchgate.Load(baselinePath)
	if err != nil {
		return "", false, err
	}
	// Gate against the baseline's own workload: a -scale mismatch would
	// otherwise just error out in Compare.
	if seed == 1 && scale == 1.0 {
		seed, scale = baseline.Seed, baseline.Scale
	}
	current := measurePopulation(seed, scale)
	regs, err := benchgate.Compare(baseline, current, threshold, allocThreshold)
	if err != nil {
		return "", false, err
	}
	return benchgate.Report(baseline, current, regs, threshold, allocThreshold), len(regs) == 0, nil
}

// writeArtifact atomically writes one export to path, creating its
// directory first: a failed encode or a signal never leaves a truncated
// file behind. The event, span and rollup exports carry only sim-time
// values and merge runs in sorted label order, so each is byte-identical
// at any -workers value.
func writeArtifact(path string, write func(io.Writer) error) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := atomicwrite.Create(path, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// abArm is one side of an overhead comparison. prepare builds one run's
// inputs, untimed, and returns the timed run, which reports what it
// recorded ("" for nothing).
type abArm struct {
	label   string
	prepare func() func() string
}

// abPairs is the number of interleaved off/on pairs an overhead report
// sums over.
const abPairs = 16

// writeOverhead measures what one observability layer costs as an A/B
// comparison of the same workload without it (off) and with it (on), and
// writes the report to path. A positive budget (percent) turns a wall
// overhead at or above it into an error, after the report is written.
//
// Protocol: after one untimed warm-up per arm, the arms run as abPairs
// interleaved pairs whose within-pair order alternates, each timed run
// preceded by a forced GC, and the verdict compares the per-arm SUMS of
// wall clock and process CPU time (getrusage, user+system) across all
// pairs. Sums — not a per-pair median or a per-arm minimum — because
// single runs are a few hundred ms and machine noise on a busy box is
// ±10% of that; summing over many alternating pairs cancels position
// effects and averages the noise, which single-run estimators provably
// do not (the same binary measured 1% and 14% on consecutive min-of-3
// attempts). CPU time is reported next to wall because it is immune to
// involuntary scheduling gaps and so tends to be the steadier of the two.
func writeOverhead(path, title string, budget float64, off, on abArm) error {
	cpuNow := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	type sums struct {
		wall, cpu time.Duration
		alloc     uint64
		note      string
	}
	var tot [2]sums
	arms := [2]abArm{off, on}
	timed := func(i int) {
		run := arms[i].prepare()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c0 := cpuNow()
		start := time.Now()
		tot[i].note = run()
		tot[i].wall += time.Since(start)
		tot[i].cpu += cpuNow() - c0
		runtime.ReadMemStats(&after)
		tot[i].alloc += after.TotalAlloc - before.TotalAlloc
	}
	off.prepare()()
	on.prepare()()
	for i := 0; i < abPairs; i++ {
		first := 1 - i%2 // on leads the even pairs
		timed(first)
		timed(1 - first)
	}
	pct := func(o, n float64) float64 { return (n - o) / o * 100 }
	overhead := pct(float64(tot[0].wall), float64(tot[1].wall))

	var b strings.Builder
	fmt.Fprintf(&b, "%s, sums over %d interleaved pairs (alternating order, GC before each timed run)\n", title, abPairs)
	for i, arm := range arms {
		fmt.Fprintf(&b, "%s: %v wall, %v cpu per run (%d MB allocated)\n", arm.label,
			(tot[i].wall / abPairs).Round(time.Millisecond), (tot[i].cpu / abPairs).Round(time.Millisecond),
			tot[i].alloc/abPairs>>20)
	}
	fmt.Fprintf(&b, "overhead: %+.2f%% wall, %+.2f%% cpu, %+.1f%% allocated bytes\n", overhead,
		pct(float64(tot[0].cpu), float64(tot[1].cpu)), pct(float64(tot[0].alloc), float64(tot[1].alloc)))
	if tot[1].note != "" {
		b.WriteString(tot[1].note + "\n")
	}
	if budget > 0 {
		verdict := "PASS (<"
		if overhead >= budget {
			verdict = "FAIL (>="
		}
		fmt.Fprintf(&b, "verdict: %s %g%% wall overhead)\n", verdict, budget)
	}
	if err := writeArtifact(path, func(w io.Writer) error {
		_, err := io.WriteString(w, b.String())
		return err
	}); err != nil {
		return err
	}
	if budget > 0 && overhead >= budget {
		return fmt.Errorf("%s: %.2f%% wall exceeds the %g%% budget", title, overhead, budget)
	}
	return nil
}

// writeTelemetryOverhead prices the telemetry plane on the 1024-client
// dense-stagger rung — the city-scale workload it is sized for — against
// a 3% wall budget, and reports the evidence that its memory stayed
// bounded (window count, flight occupancy vs caps).
func writeTelemetryOverhead(path string, seed int64, scale float64) error {
	o := experiments.Options{Seed: seed, Scale: scale}
	const denseClients = 1024
	arm := func(attach bool) func() func() string {
		return func() func() string {
			world, clients := experiments.PopulationDenseScenario(o, denseClients)
			if !attach {
				return func() string { core.RunPopulation(world, clients); return "" }
			}
			tel := telemetry.New(telemetry.Config{Seed: seed, SLOs: telemetry.DefaultSLOs()})
			world.Telemetry = tel
			return func() string {
				core.RunPopulation(world, clients)
				fc := tel.FlightCounters()
				return fmt.Sprintf("bounded state: %d rollup windows (%d dropped), flight %d/%d events %d/%d spans, %d clients sampled",
					len(tel.Windows()), tel.DroppedWindows(),
					fc.EventsKept, fc.EventCap, fc.SpansKept, fc.SpanCap, fc.ClientsSampled)
			}
		}
	}
	title := fmt.Sprintf("telemetry overhead: %d-client dense-stagger rung, seed=%d scale=%g", denseClients, seed, scale)
	return writeOverhead(path, title, 3,
		abArm{"telemetry detached", arm(false)}, abArm{"telemetry attached", arm(true)})
}

// writeObsOverhead prices event and span recording on the chaos scenario
// (the event-densest workload): a retaining recorder against none.
func writeObsOverhead(path string, seed int64, scale float64) error {
	arm := func(record bool) func() func() string {
		return func() func() string {
			c := experiments.ChaosScenario(experiments.Options{Seed: seed, Scale: scale})
			if !record {
				return func() string { core.Run(c); return "" }
			}
			rec := obs.NewRecorder()
			c.Obs = rec
			return func() string {
				core.Run(c)
				return fmt.Sprintf("recorded: %d events, %d spans per run", rec.Summary().Total(), len(rec.Spans()))
			}
		}
	}
	title := fmt.Sprintf("obs overhead: chaos scenario, seed=%d scale=%g", seed, scale)
	return writeOverhead(path, title, 0,
		abArm{"recording disabled", arm(false)}, abArm{"recording enabled", arm(true)})
}

// progressPrinter renders fleet telemetry as throttled stderr lines:
// queue depth, completions, cache traffic, and the pool's ETA.
func progressPrinter() func(fleet.Event) {
	var mu sync.Mutex
	var last time.Time
	return func(ev fleet.Event) {
		switch ev.Type {
		case fleet.JobDone, fleet.JobFailed, fleet.CacheHit:
		default:
			return
		}
		mu.Lock()
		defer mu.Unlock()
		// Always report failures and cache hits; throttle the steady
		// completion stream.
		if ev.Type == fleet.JobDone && time.Since(last) < 250*time.Millisecond {
			return
		}
		last = time.Now()
		s := ev.Stats
		line := fmt.Sprintf("[fleet] %s %s", ev.Type, ev.Job)
		if ev.Group != "" {
			line = fmt.Sprintf("[fleet] %s %s/%s", ev.Type, ev.Group, ev.Job)
		}
		if ev.Wall > 0 {
			line += fmt.Sprintf(" in %v", ev.Wall.Round(time.Millisecond))
		}
		line += fmt.Sprintf("  queued=%d running=%d done=%d", s.Queued, s.Running, s.Done)
		if s.Failed > 0 {
			line += fmt.Sprintf(" failed=%d", s.Failed)
		}
		if s.CacheHits > 0 {
			line += fmt.Sprintf(" cache-hits=%d", s.CacheHits)
		}
		if !s.Health.Empty() {
			line += fmt.Sprintf(" faults=%d recovered=%d drops=%d",
				s.Health.Faults, s.Health.Recoveries, s.Health.LinkDrops)
		}
		if !s.Events.Empty() {
			line += fmt.Sprintf(" events=%d", s.Events.Total())
		}
		if s.ETA > 0 {
			line += fmt.Sprintf(" eta=%v", s.ETA.Round(time.Second))
		}
		fmt.Fprintln(os.Stderr, line)
	}
}
