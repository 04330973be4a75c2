package main

// The metric catalog. BENCHMARK.json at the repository root lists the same
// names and units (TestCatalogMatchesBenchmarkJSON keeps the two in step);
// this file also records, for every per-layer metric, which end-to-end
// metric it should move and on which workload, so a change that claims a
// gain can be checked against the prediction made before it was written.

// metric describes one reported figure.
type metric struct {
	name string
	unit string
	// moves is the end-to-end metric a change to this layer should move.
	moves string
	// on lists the workloads where the move should show; flat lists the
	// workloads where the prediction is no change.
	on, flat string
}

// endToEnd are the figures a user of the simulator sees, reported by every
// untraced run. Lower is better for all of them.
var endToEnd = []metric{
	// Timed phase (after set-up, through Finalize) ÷ (declared clients ×
	// horizon sim-seconds). The realtime factor follows from it.
	{name: "wall_ns_per_client_sim_s", unit: "ns"},
	// Process user+sys CPU over the same phase and denominator: GC work on
	// a second core shows here and not in wall time.
	{name: "cpu_ns_per_client_sim_s", unit: "ns"},
	// Building a live world that is ready to step.
	{name: "setup_s", unit: "s"},
	// HeapAlloc after a forced GC at the end of the timed phase, with the
	// world still referenced.
	{name: "live_heap_mb", unit: "MiB"},
	// Downtime after a crash: serve-rush re-opens the state directory the
	// live run left behind and replays its WAL; the batch population worlds
	// keep no log, so their recovery is a re-simulation from config to the
	// horizon.
	{name: "recover_s", unit: "s"},
}

// selfLayers are the layers the traced run charges CPU samples to, each
// reported as <layer>.self_ns_per_client_sim_s. A layer is an internal/
// package, except that geo charges to mobility and opt to alloc; GC
// background workers charge to runtime.gc and samples with no layer frame
// to other.
var selfLayers = []metric{
	{name: "sim", moves: "wall/cpu", on: "city-dense", flat: "serve-rush"},
	{name: "lmm", moves: "wall/cpu", on: "city-dense", flat: "pf-bulk"},
	{name: "phy", moves: "wall/cpu, recover_s", on: "serve-rush, city-dense"},
	{name: "dot11", moves: "wall/cpu, recover_s", on: "serve-rush, city-dense"},
	{name: "mobility", moves: "wall/cpu, recover_s", on: "serve-rush, city-dense"},
	{name: "driver", moves: "wall/cpu", on: "city-dense, pf-bulk"},
	{name: "ap", moves: "wall/cpu", on: "city-dense, pf-bulk"},
	{name: "tcpsim", moves: "wall/cpu", on: "pf-bulk", flat: "city-dense, serve-rush"},
	{name: "backhaul", moves: "wall/cpu", on: "pf-bulk", flat: "city-dense, serve-rush"},
	{name: "mempool", moves: "wall/cpu", on: "pf-bulk", flat: "city-dense, serve-rush"},
	{name: "ipnet", moves: "wall/cpu", on: "pf-bulk", flat: "city-dense, serve-rush"},
	{name: "alloc", moves: "regression watch only", on: "pf-bulk", flat: "city-dense, serve-rush"},
	{name: "dhcp", moves: "none claimed", on: "serve-rush"},
	{name: "ipam", moves: "none claimed", on: "serve-rush"},
	{name: "obs", moves: "live_heap_mb, recover_s", on: "serve-rush", flat: "city-dense, pf-bulk"},
	{name: "telemetry", moves: "live_heap_mb, recover_s", on: "serve-rush", flat: "city-dense, pf-bulk"},
	{name: "serve", moves: "wall, recover_s", on: "serve-rush", flat: "city-dense, pf-bulk"},
	{name: "core", moves: "setup_s, wall", on: "all"},
	{name: "runtime.gc", moves: "cpu more than wall", on: "pf-bulk"},
	{name: "other", moves: "none claimed"},
}

// layerCounters are the per-layer figures read from public counters and
// from the benchmark's own timing of each call, reported by the traced
// run next to the self times.
var layerCounters = []metric{
	{name: "sim.events", unit: "count", moves: "wall/cpu", on: "city-dense", flat: "serve-rush"},
	{name: "sim.ns_per_event", unit: "ns", moves: "wall/cpu", on: "city-dense", flat: "serve-rush"},
	{name: "sim.slice_ns_per_event.max", unit: "ns", moves: "wall/cpu", on: "city-dense"},
	{name: "sim.slice_ns_per_event.min", unit: "ns", moves: "wall/cpu", on: "city-dense"},
	{name: "lmm.joins_started", unit: "count", moves: "wall/cpu", on: "city-dense", flat: "pf-bulk"},
	{name: "lmm.join_success_ratio", unit: "ratio", moves: "wall/cpu", on: "city-dense", flat: "pf-bulk"},
	{name: "phy.frames_sent", unit: "count", moves: "wall/cpu, recover_s", on: "serve-rush, city-dense"},
	{name: "phy.frames_delivered", unit: "count", moves: "wall/cpu, recover_s", on: "serve-rush, city-dense"},
	{name: "phy.broadcasts", unit: "count", moves: "wall/cpu, recover_s", on: "serve-rush, city-dense"},
	{name: "phy.collisions", unit: "count", moves: "wall/cpu, recover_s", on: "serve-rush, city-dense"},
	{name: "phy.collision_ratio", unit: "ratio", moves: "wall/cpu, recover_s", on: "serve-rush, city-dense"},
	{name: "driver.switches", unit: "count", moves: "wall/cpu", on: "city-dense, pf-bulk"},
	{name: "driver.probes_sent", unit: "count", moves: "wall/cpu", on: "city-dense, pf-bulk"},
	{name: "ap.associations", unit: "count", moves: "wall/cpu", on: "city-dense, pf-bulk"},
	{name: "ap.down_packets", unit: "count", moves: "wall/cpu", on: "city-dense, pf-bulk"},
	{name: "tcpsim.goodput_kbps", unit: "kbit/s", moves: "wall/cpu", on: "pf-bulk", flat: "city-dense, serve-rush"},
	{name: "tcpsim.ns_per_delivered_kb", unit: "ns", moves: "wall/cpu", on: "pf-bulk", flat: "city-dense, serve-rush"},
	{name: "runtime.alloc_mb", unit: "MiB", moves: "cpu more than wall", on: "pf-bulk"},
	{name: "runtime.mallocs", unit: "count", moves: "cpu more than wall", on: "pf-bulk"},
	{name: "runtime.gc_cycles", unit: "count", moves: "cpu more than wall", on: "pf-bulk"},
	{name: "alloc.jain", unit: "ratio", moves: "regression watch only", on: "pf-bulk", flat: "city-dense, serve-rush"},
	{name: "dhcp.pool_refusals", unit: "count", moves: "none claimed", on: "serve-rush"},
	{name: "ipam.allocs", unit: "count", moves: "none claimed", on: "serve-rush"},
	{name: "ipam.failovers", unit: "count", moves: "none claimed", on: "serve-rush"},
	{name: "ipam.reclaimed", unit: "count", moves: "none claimed", on: "serve-rush"},
	{name: "ipam.exhausted", unit: "count", moves: "none claimed", on: "serve-rush"},
	{name: "obs.events", unit: "count", moves: "live_heap_mb, recover_s", on: "serve-rush", flat: "city-dense, pf-bulk"},
	{name: "telemetry.windows", unit: "count", moves: "live_heap_mb, recover_s", on: "serve-rush", flat: "city-dense, pf-bulk"},
	{name: "telemetry.flight_events_kept", unit: "count", moves: "live_heap_mb, recover_s", on: "serve-rush", flat: "city-dense, pf-bulk"},
	{name: "serve.ack_us.p50", unit: "us", moves: "ack latency (fsync-bound)", on: "serve-rush"},
	{name: "serve.ack_us.p95", unit: "us", moves: "ack latency (fsync-bound)", on: "serve-rush"},
	{name: "serve.ack_us.samples", unit: "count", on: "serve-rush"},
	{name: "serve.advance_ms.p50", unit: "ms", moves: "wall, recover_s", on: "serve-rush"},
	{name: "serve.advance_ms.p99", unit: "ms", moves: "wall, recover_s", on: "serve-rush"},
	{name: "serve.advance_ms.samples", unit: "count", on: "serve-rush"},
	{name: "serve.checkpoint_ms.p50", unit: "ms", moves: "wall", on: "serve-rush"},
	{name: "core.finalize_ms", unit: "ms", moves: "setup_s, wall", on: "all"},
	// Traced wall time minus untraced, per client-sim-second: what the
	// profiler itself costs.
	{name: "trace.overhead_ns_per_client_sim_s", unit: "ns"},
}

// selfMetricName is the per-layer self-time metric of one layer.
func selfMetricName(layer string) string { return layer + ".self_ns_per_client_sim_s" }

// perLayer is every metric a traced run reports, self times first.
func perLayer() []metric {
	out := make([]metric, 0, len(selfLayers)+len(layerCounters))
	for _, l := range selfLayers {
		m := l
		m.name, m.unit = selfMetricName(l.name), "ns"
		out = append(out, m)
	}
	return append(out, layerCounters...)
}
