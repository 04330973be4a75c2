package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"spider/internal/alloc"
	"spider/internal/core"
	"spider/internal/experiments"
	"spider/internal/sim"
	"spider/internal/stats"
)

// workload is one named input set. Its run executes the whole workload
// once (a repeat); setup builds only a ready-to-step world and tears it
// down, so set-up time can be sampled many times per run.
type workload struct {
	name    string
	why     string
	clients int      // declared clients: the cost denominator
	horizon sim.Time // simulated time a repeat covers
	// slice is the sim-time step of a measured repeat's timed phase.
	slice sim.Time
	// worlds is how many worlds, seeded from the run's seed, a run cycles
	// through; figures are averaged over them.
	worlds int
	run    func(seed int64, quantum sim.Time, tr *tracer) (*repeat, error)
	setup  func(seed int64) (time.Duration, error)
}

// clientSimSeconds is the per-workload constant every end-to-end cost is
// divided by.
func (w *workload) clientSimSeconds() float64 {
	return float64(w.clients) * w.horizon.Seconds()
}

// popScale shrinks the population studies to their 60 sim-s benchmark
// length (5 min × 0.2).
const popScale = 0.2

var workloads = []*workload{
	{
		name: "city-dense",
		why: "1024-client channel-1 join storm: loads sim, lmm, phy, driver, ap and broadcast " +
			"delivery; the data path (tcpsim, backhaul) idles",
		clients: 1024,
		horizon: 60 * time.Second,
		slice:   sim.Time(time.Second),
		// The storm collapses early in some worlds (a third of the joins,
		// a third less live heap), so a few worlds would let the seed, not
		// the code, set a run's figures.
		worlds: 8,
	},
	{
		name: "pf-bulk",
		why: "64-client striped corridor under the PF oracle: bulk TCP loads tcpsim, backhaul, " +
			"mempool, ap unicast, channel switching and GC; joins are rare",
		clients: 64,
		horizon: 60 * time.Second,
		slice:   sim.Time(time.Second),
		worlds:  4,
	},
	{
		name: "serve-rush",
		why: "300 vehicles arrive as fsynced intents into a live 4-AP plaza with shared IPAM and " +
			"telemetry: loads serve, phy beacons, dhcp/ipam churn, obs; recovery replays the WAL",
		clients: rushVehicles,
		horizon: rushHorizon,
		slice:   rushQuantum,
		worlds:  1,
	},
}

func init() {
	dense := func(o experiments.Options) (core.WorldConfig, []core.ClientConfig) {
		return experiments.PopulationDenseScenario(o, 1024)
	}
	bulk := func(o experiments.Options) (core.WorldConfig, []core.ClientConfig) {
		return experiments.FairnessScenario(o, 64, alloc.Oracle)
	}
	bind := func(w *workload, build popBuilder) {
		w.run = func(seed int64, quantum sim.Time, tr *tracer) (*repeat, error) {
			return runPopulation(w, build, seed, quantum, tr)
		}
		w.setup = func(seed int64) (time.Duration, error) {
			start := time.Now()
			startPopulation(build, seed)
			return time.Since(start), nil
		}
	}
	bind(workloads[0], dense)
	bind(workloads[1], bulk)
	workloads[2].run = runServeRush
	workloads[2].setup = setupServeRush
}

// lookup returns the named workload.
func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// popBuilder makes a population workload's world and clients.
type popBuilder func(experiments.Options) (core.WorldConfig, []core.ClientConfig)

// startPopulation builds the world and its declared clients and starts it:
// the set-up a population repeat times.
func startPopulation(build popBuilder, seed int64) *core.Scenario {
	world, clients := build(experiments.Options{Seed: seed, Scale: popScale})
	s := core.NewScenario(world)
	for _, cc := range clients {
		s.AddClient(cc)
	}
	s.Start()
	return s
}

// runPopulation executes one population repeat: set-up, the timed phase
// stepped in quanta through Finalize, then the output fingerprint and
// layer counters.
func runPopulation(w *workload, build popBuilder, seed int64, quantum sim.Time, tr *tracer) (*repeat, error) {
	r := &repeat{}
	var s *core.Scenario
	scn := func() *core.Scenario { return s }
	r.setup = tr.call("core.Start", scn, func() { s = startPopulation(build, seed) })

	ph := startPhase(tr.on)
	for t := quantum; t <= w.horizon; t += quantum {
		before := s.Engine().Fired()
		d := tr.call("core.StepUntil", scn, func() { s.StepUntil(t) })
		r.slices = append(r.slices, slice{wall: d, fired: s.Engine().Fired() - before})
	}
	stepped := time.Since(ph.start)
	var results []core.Result
	r.finalize = tr.call("core.Finalize", scn, func() { results = s.Finalize() })
	if err := ph.stop(r); err != nil {
		return nil, err
	}
	r.heapMB = liveHeapMB(s)
	// A batch world keeps no log: recovering it is re-simulating from its
	// config to the horizon.
	r.recover = r.setup + stepped

	if len(results) != w.clients {
		return nil, fmt.Errorf("%d results for %d declared clients", len(results), w.clients)
	}
	r.fingerprint = fingerprintResults(results)
	r.counters = scenarioCounters(s, results, w.horizon)
	return r, checkCounters(w.name, r.counters)
}

// fingerprintResults hashes every client's Result in ID order. fmt prints
// maps in key order and Result holds no pointers, so the text is a pure
// function of the simulated outcome.
func fingerprintResults(results []core.Result) string {
	h := sha256.New()
	for i := range results {
		fmt.Fprintf(h, "%+v\n", results[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scenarioCounters reads every layer's public counters after Finalize.
func scenarioCounters(s *core.Scenario, results []core.Result, horizon sim.Time) map[string]float64 {
	c := map[string]float64{"sim.events": float64(s.Engine().Fired())}
	if len(results) > 0 {
		m := results[0].Medium
		c["phy.frames_sent"] = float64(m.FramesSent)
		c["phy.frames_delivered"] = float64(m.FramesDelivered)
		c["phy.broadcasts"] = float64(m.Broadcasts)
		c["phy.collisions"] = float64(m.Collisions)
		c["phy.collision_ratio"] = ratio(float64(m.Collisions), float64(m.FramesSent))
		c["obs.events"] = float64(results[0].Events.Total())
	}
	var started, complete, bytes float64
	goodputs := make([]float64, len(results))
	for i, res := range results {
		started += float64(res.LMM.JoinsStarted)
		complete += float64(res.LMM.JoinsComplete)
		c["driver.switches"] += float64(res.Driver.Switches)
		c["driver.probes_sent"] += float64(res.Driver.ProbesSent)
		bytes += float64(res.BytesReceived)
		goodputs[i] = res.ThroughputKBps
	}
	c["lmm.joins_started"] = started
	c["lmm.join_success_ratio"] = ratio(complete, started)
	c["tcpsim.goodput_kbps"] = bytes * 8 / 1000 / horizon.Seconds()
	c["tcpsim.delivered_kb"] = bytes / 1000
	c["alloc.jain"] = stats.Jain(goodputs)
	for _, a := range s.APs() {
		st := a.Stats()
		c["ap.associations"] += float64(st.Associations)
		c["ap.down_packets"] += float64(st.DownPackets)
	}
	c["dhcp.pool_refusals"] = float64(s.DHCPPoolExhausted())
	ip := s.IPAM().Stats()
	c["ipam.allocs"] = float64(ip.Allocs)
	c["ipam.failovers"] = float64(ip.Failovers)
	c["ipam.reclaimed"] = float64(ip.Reclaimed)
	c["ipam.exhausted"] = float64(ip.Exhausted)
	tel := s.Telemetry()
	c["telemetry.windows"] = float64(len(tel.Windows()))
	c["telemetry.flight_events_kept"] = float64(tel.FlightCounters().EventsKept)
	return c
}

// checkCounters rejects a repeat whose outputs show the workload did not
// do the work it exists to measure.
func checkCounters(name string, c map[string]float64) error {
	need := []string{"sim.events", "phy.frames_sent", "lmm.joins_started", "ap.associations"}
	switch name {
	case "pf-bulk":
		need = append(need, "tcpsim.goodput_kbps", "ap.down_packets")
	case "serve-rush":
		need = append(need, "ipam.allocs", "ipam.reclaimed", "telemetry.windows", "obs.events")
	}
	for _, k := range need {
		if !(c[k] > 0) {
			return fmt.Errorf("%s: %s = %v, want > 0", name, k, c[k])
		}
	}
	if c["phy.collisions"] > c["phy.frames_sent"] {
		return fmt.Errorf("%s: %v collisions in %v frame attempts", name, c["phy.collisions"], c["phy.frames_sent"])
	}
	return nil
}
