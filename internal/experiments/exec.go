package experiments

import (
	"context"
	"fmt"

	"spider/internal/core"
	"spider/internal/fleet"
	"spider/internal/obs"
	"spider/internal/telemetry"
)

// This file routes experiment work through the fleet engine. Every helper
// preserves the sequential contract: job i's inputs are computed exactly
// as the pre-fleet loops computed iteration i, and results come back in
// job order, so parallel output is byte-identical to an inline run.

// job is one deferred computation with a telemetry id.
type job[T any] struct {
	id string
	fn func() T
}

// mapJobs executes jobs in order-preserving fashion: on o.Fleet when set,
// inline otherwise. A job failure (panic in a simulation run) aborts the
// experiment by re-panicking with the fleet's typed sweep report, which
// callers like spider-bench catch per experiment.
func mapJobs[T any](o Options, jobs []job[T]) []T {
	out := make([]T, len(jobs))
	if o.Fleet == nil {
		for i, j := range jobs {
			out[i] = j.fn()
		}
		return out
	}
	fjobs := make([]fleet.Job, len(jobs))
	for i, j := range jobs {
		fn := j.fn
		fjobs[i] = fleet.Job{ID: j.id, Run: func() (any, error) { return fn(), nil }}
	}
	results, err := o.Fleet.Map(context.Background(), fjobs)
	if err != nil {
		panic(err)
	}
	for i, r := range results {
		out[i] = r.Value.(T)
	}
	return out
}

// run is one simulation: a world and the clients that traverse it.
type run struct {
	world   core.WorldConfig
	clients []core.ClientConfig
}

// solo is a run with one client.
func solo(world core.WorldConfig, client core.ClientConfig) run {
	return run{world: world, clients: []core.ClientConfig{client}}
}

// simulate executes one run and files it under label: it attaches a
// recorder and a telemetry aggregator as o.Runs asks, runs the world with
// its clients, folds the run's event summary and health into the fleet
// group, and files the artifacts. A label already filed panics, which
// fails the experiment.
func (o Options) simulate(label string, r run) core.PopulationResult {
	world := r.world
	var rec *obs.Recorder
	if o.Runs.Traces() {
		rec = obs.NewRecorder()
	}
	world.Obs = rec
	var tel *telemetry.Aggregator
	if o.Runs.Rollups() {
		tel = telemetry.New(telemetry.Config{SLOs: telemetry.DefaultSLOs()})
	}
	world.Telemetry = tel
	p := core.RunPopulation(world, r.clients)
	if o.Fleet != nil {
		o.Fleet.AddEvents(rec.Summary())
		o.Fleet.AddHealth(health(p))
	}
	if err := o.Runs.File(label, rec, tel); err != nil {
		panic(err)
	}
	return p
}

// health sums a run's fault, recovery and link-drop counters. Faults are
// a world-level count that every client reports, so it is read once.
func health(p core.PopulationResult) fleet.Health {
	var h fleet.Health
	for i, c := range p.Clients {
		if i == 0 {
			h.Faults = int64(c.Chaos.Injected)
		}
		h.Recoveries += int64(len(c.Recoveries))
		h.LinkDrops += int64(c.LinkDowns)
	}
	return h
}

// sweep executes runs as one fleet sweep, filing run i under label(i),
// and returns their results in run order.
func sweep(o Options, runs []run, label func(i int) string) []core.PopulationResult {
	jobs := make([]job[core.PopulationResult], len(runs))
	for i, r := range runs {
		l := label(i)
		jobs[i] = job[core.PopulationResult]{id: l, fn: func() core.PopulationResult { return o.simulate(l, r) }}
	}
	return mapJobs(o, jobs)
}

// soloSweep executes single-client runs as one sweep labelled id#0,
// id#1, … and returns each run's client result in run order.
func soloSweep(o Options, id string, runs []run) []core.Result {
	pops := sweep(o, runs, func(i int) string { return fmt.Sprintf("%s#%d", id, i) })
	out := make([]core.Result, len(pops))
	for i, p := range pops {
		out[i] = p.Clients[0]
	}
	return out
}

// memo caches compute under the experiment's canonical key when a fleet is
// attached (single-flight across concurrent experiments), and computes
// inline otherwise.
func memo[T any](o Options, id string, compute func() T) T {
	return memoKey(o, o.Key(id), compute)
}

// memoKey is memo with an explicit cache key, for experiments whose
// results depend on more than (id, seed, scale) — the chaos study keys
// on its fault-plan hash so a cached result can never mask a plan change.
func memoKey[T any](o Options, key string, compute func() T) T {
	if o.Fleet == nil {
		return compute()
	}
	v, _, err := o.Fleet.Do(key, func() (any, error) { return compute(), nil })
	if err != nil {
		panic(err)
	}
	return v.(T)
}
