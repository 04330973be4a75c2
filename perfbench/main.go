// Command perfbench is the repository's benchmark. It drives one named
// workload through the public APIs of core, experiments and serve, times
// its own calls into them, checks that every repeat reproduces the same
// output fingerprint, and prints every metric by name and unit, ending
// with one JSON line:
//
//	python3 perfbench/run.py --workload city-dense --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced repeats.
// With --trace 1 it follows each untraced repeat with one whose timed
// phase runs under the CPU profiler, charges the profile's samples to
// layers (the internal/ packages), reads each layer's public counters, and
// writes a span per call to .bench_build/trace/. metrics.go lists every
// metric and what it should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"spider/internal/sim"
)

// setupSamples is how many extra set-ups a run times for setup_s.
const setupSamples = 100

func main() {
	name := flag.String("workload", "", "workload to run: city-dense, pf-bulk or serve-rush")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 30, "measure for about this many seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	w, err := lookup(*name)
	if err != nil || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (%v)\n", err)
		flag.Usage()
		os.Exit(2)
	}
	o := execute(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err := report(os.Stdout, w, *seed, o, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int
	// fingerprints holds each world's output fingerprint.
	fingerprints  []string
	plain, traced []*repeat
	setups        []float64 // seconds
	spans         []span
}

// fingerprint is the run's output fingerprint: one hash over every
// world's, in world order.
func (o *outcome) fingerprint() string {
	h := sha256.New()
	for _, fp := range o.fingerprints {
		if fp == "" {
			return ""
		}
		fmt.Fprintln(h, fp)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// worldSeed is the seed of a run's j-th world: distinct seeds give
// disjoint world sets.
func worldSeed(w *workload, seed int64, j int) int64 {
	return seed*int64(w.worlds) + int64(j)
}

// execute runs one warm-up repeat, samples set-up, then repeats the
// workload in rounds over its worlds until the budget is spent; a traced
// run follows each untraced repeat with a traced one of the same world.
// Every repeat of a world must reproduce the world's fingerprint.
func execute(w *workload, seed int64, budget time.Duration, traced bool) *outcome {
	o := &outcome{fingerprints: make([]string, w.worlds)}
	tr := &tracer{origin: time.Now()}
	once := func(world int, quantum sim.Time, on bool) *repeat {
		tr.on = on
		tr.repeat++
		o.attempted++
		r, err := safely(func() (*repeat, error) { return w.run(worldSeed(w, seed, world), quantum, tr) })
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s repeat %d: %v\n", w.name, tr.repeat, err)
			return nil
		}
		r.world = world
		o.attempted += r.intents
		o.failed += r.opFailures
		switch fp := &o.fingerprints[world]; {
		case *fp == "":
			*fp = r.fingerprint
		case r.fingerprint != *fp:
			o.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s repeat %d fingerprint %s != %s\n",
				w.name, tr.repeat, r.fingerprint, *fp)
		}
		return r
	}

	start := time.Now()
	// The warm-up grows the heap and fills caches and is not measured. It
	// steps the whole horizon in one slice: its fingerprint matching the
	// sliced repeats' shows that slicing leaves the outputs unchanged.
	once(0, w.horizon, false)
	for i := 0; i < setupSamples; i++ {
		// Set-up failures count as failed operations too.
		o.attempted++
		d, err := safely(func() (time.Duration, error) { return w.setup(worldSeed(w, seed, i%w.worlds)) })
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", w.name, err)
			continue
		}
		o.setups = append(o.setups, d.Seconds())
	}
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		for j := 0; j < w.worlds; j++ {
			if r := once(j, w.slice, false); r != nil {
				o.plain = append(o.plain, r)
			}
			if !traced {
				continue
			}
			if r := once(j, w.slice, true); r != nil {
				o.traced = append(o.traced, r)
			}
		}
	}
	o.spans = tr.spans
	return o
}

// safely runs one operation, turning a panic into a failed operation. A
// panic inside a traced phase leaves the profiler running; stopping it
// lets the next traced repeat start its own.
func safely[T any](fn func() (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			pprof.StopCPUProfile()
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// acrossWorlds is the mean over worlds of the median of get over each
// world's repeats: every world weighs the same however many repeats it
// got.
func acrossWorlds(w *workload, reps []*repeat, get func(*repeat) float64) float64 {
	byWorld := make([][]float64, w.worlds)
	for _, r := range reps {
		byWorld[r.world] = append(byWorld[r.world], get(r))
	}
	sum, n := 0.0, 0
	for _, v := range byWorld {
		if len(v) > 0 {
			sum += median(v)
			n++
		}
	}
	return ratio(sum, float64(n))
}

// endToEndValues are the untraced repeats' figures over the workload's
// client-sim-seconds.
func endToEndValues(w *workload, o *outcome) map[string]float64 {
	per := w.clientSimSeconds()
	at := func(get func(*repeat) float64) float64 { return acrossWorlds(w, o.plain, get) }
	return map[string]float64{
		"wall_ns_per_client_sim_s": at(func(r *repeat) float64 { return float64(r.wall) }) / per,
		"cpu_ns_per_client_sim_s":  at(func(r *repeat) float64 { return float64(r.cpu) }) / per,
		"setup_s":                  median(o.setups),
		"live_heap_mb":             at(func(r *repeat) float64 { return r.heapMB }),
		"recover_s":                at(func(r *repeat) float64 { return r.recover.Seconds() }),
	}
}

// perLayerValues are the traced repeats' layer self times and counters.
func perLayerValues(w *workload, o *outcome) map[string]float64 {
	reps := o.traced
	per := w.clientSimSeconds()
	out := map[string]float64{}
	charged := map[string]int64{}
	for _, r := range reps {
		chargeLayers(charged, r.stacks)
	}
	for _, l := range selfLayers {
		out[selfMetricName(l.name)] = ratio(float64(charged[l.name]), float64(len(reps))*per)
	}
	if len(reps) == 0 {
		return out
	}
	at := func(get func(*repeat) float64) float64 { return acrossWorlds(w, reps, get) }
	for k := range reps[0].counters {
		out[k] = at(func(r *repeat) float64 { return r.counters[k] })
	}
	// Costs per unit of work use the untraced wall time, like the
	// end-to-end metrics.
	wall := acrossWorlds(w, o.plain, func(r *repeat) float64 { return float64(r.wall) })
	out["sim.ns_per_event"] = ratio(wall, out["sim.events"])
	out["tcpsim.ns_per_delivered_kb"] = ratio(wall, out["tcpsim.delivered_kb"])
	out["trace.overhead_ns_per_client_sim_s"] = (at(func(r *repeat) float64 { return float64(r.wall) }) - wall) / per
	out["runtime.alloc_mb"] = at(func(r *repeat) float64 { return r.allocMB })
	out["runtime.mallocs"] = at(func(r *repeat) float64 { return r.mallocs })
	out["runtime.gc_cycles"] = at(func(r *repeat) float64 { return r.gcCycles })
	out["core.finalize_ms"] = at(func(r *repeat) float64 { return float64(r.finalize) / 1e6 })
	out["sim.slice_ns_per_event.max"] = at(func(r *repeat) float64 { return sliceCost(r.slices, math.Max) })
	out["sim.slice_ns_per_event.min"] = at(func(r *repeat) float64 { return sliceCost(r.slices, math.Min) })
	for name, get := range map[string]func(*repeat) []float64{
		"serve.ack_us":        func(r *repeat) []float64 { return r.ackUS },
		"serve.advance_ms":    func(r *repeat) []float64 { return r.advanceMS },
		"serve.checkpoint_ms": func(r *repeat) []float64 { return r.checkpointMS },
	} {
		t := summarize(get(reps[0]))
		if t.n == 0 {
			continue
		}
		// Every repeat makes the same calls, so the sample count, and
		// with it the tail percentile reported, is the same for all.
		out[name+".samples"] = float64(t.n)
		out[name+".p50"] = at(func(r *repeat) float64 { return summarize(get(r)).p50 })
		if t.tailPermil > 500 {
			out[name+"."+percentileLabel(t.tailPermil)] = at(func(r *repeat) float64 { return summarize(get(r)).tail })
		}
	}
	return out
}

// sliceCost folds the per-slice ns/event of one repeat with pick (max or
// min), skipping slices that fired nothing.
func sliceCost(slices []slice, pick func(a, b float64) float64) float64 {
	v := math.NaN()
	for _, s := range slices {
		if s.fired == 0 {
			continue
		}
		c := float64(s.wall) / float64(s.fired)
		if math.IsNaN(v) {
			v = c
		} else {
			v = pick(v, c)
		}
	}
	return v
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the run's fingerprint, every metric of the mode by name
// with its unit, and the JSON result line; a traced run also writes its
// spans.
func report(out *os.File, w *workload, seed int64, o *outcome, traced bool) error {
	fmt.Fprintf(out, "workload %s seed %d: %s\n", w.name, seed, w.why)
	seeds := make([]int64, w.worlds)
	for j := range seeds {
		seeds[j] = worldSeed(w, seed, j)
	}
	fmt.Fprintf(out, "fingerprint %s (worlds seeded %v)\n", o.fingerprint(), seeds)
	fmt.Fprintf(out, "repeats %d untraced, %d traced, %d set-up samples\n", len(o.plain), len(o.traced), len(o.setups))
	e2e := endToEndValues(w, o)
	if v := e2e["wall_ns_per_client_sim_s"]; v > 0 {
		fmt.Fprintf(out, "realtime_factor %.2f (sim-s per wall-s, not gated)\n", 1e9/(v*float64(w.clients)))
	}
	catalog, vals := endToEnd, e2e
	if traced {
		catalog, vals = perLayer(), perLayerValues(w, o)
		path, err := writeSpans(w.name, seed, o.spans)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(o.spans), path)
		printSlices(out, o.traced)
	}
	res := result{
		Correct:   o.failed == 0 && o.fingerprint() != "",
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range catalog {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		line := fmt.Sprintf("%-40s %16.4f %s", m.name, v, m.unit)
		if m.moves != "" {
			line += fmt.Sprintf("  (moves %s; on %s", m.moves, m.on)
			if m.flat != "" {
				line += "; flat on " + m.flat
			}
			line += ")"
		}
		fmt.Fprintln(out, line)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// printSlices shows where a traced repeat's timed phase got expensive:
// wall time, events and ns/event per group of slices.
func printSlices(out *os.File, reps []*repeat) {
	if len(reps) == 0 || len(reps[0].slices) == 0 {
		return
	}
	const groups = 10
	sl := reps[0].slices
	per := (len(sl) + groups - 1) / groups
	fmt.Fprintf(out, "slices of the first traced repeat, %d per row:\n", per)
	for i := 0; i < len(sl); i += per {
		var wall time.Duration
		var fired uint64
		for _, s := range sl[i:min(i+per, len(sl))] {
			wall += s.wall
			fired += s.fired
		}
		fmt.Fprintf(out, "  slices %4d-%-4d wall %9.2f ms  events %9d  %8.1f ns/event\n",
			i, min(i+per, len(sl))-1, float64(wall)/1e6, fired, ratio(float64(wall), float64(fired)))
	}
}

// writeSpans writes the run's spans as JSONL inside the build directory.
func writeSpans(workload string, seed int64, spans []span) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}
