package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"time"

	"spider/internal/core"
)

// repeat is what one execution of a workload measured.
type repeat struct {
	world       int // index of the run's world it executed
	fingerprint string
	// setup builds the live world; wall and cpu cover the timed phase;
	// recover rebuilds the world at the horizon; finalize is the
	// Finalize call alone.
	setup, wall, cpu, recover, finalize time.Duration
	heapMB                              float64
	// Allocator deltas over the timed phase.
	allocMB, mallocs, gcCycles float64
	slices                     []slice
	// serve-rush call latencies, one sample per call.
	ackUS, advanceMS, checkpointMS []float64
	// serve-rush operations: intents accepted, and operations that failed
	// (Accept errors, apply-time rejections, a recovered world that
	// differs from the live one).
	intents, opFailures int
	counters            map[string]float64
	// stacks are the timed phase's CPU-profile samples (traced repeats).
	stacks []stack
}

// slice is one fixed sim-time step of the timed phase.
type slice struct {
	wall  time.Duration
	fired uint64
}

// phase measures one timed phase: wall and CPU time, the allocator's
// deltas, and (when profiling) a CPU profile.
type phase struct {
	start time.Time
	cpu0  time.Duration
	mem0  runtime.MemStats
	prof  *bytes.Buffer
	err   error
}

func startPhase(profile bool) *phase {
	p := &phase{}
	runtime.ReadMemStats(&p.mem0)
	p.cpu0 = cpuTime()
	p.start = time.Now()
	if profile {
		p.prof = new(bytes.Buffer)
		p.err = pprof.StartCPUProfile(p.prof)
	}
	return p
}

// stop ends the phase and stores its measurements in r. The wall and CPU
// clocks stop before the profiler does: a traced repeat's wall time carries
// the sampling overhead the profile was taken under, not the time spent
// writing the profile out afterwards.
func (p *phase) stop(r *repeat) error {
	r.wall = time.Since(p.start)
	r.cpu = cpuTime() - p.cpu0
	if p.prof != nil && p.err == nil {
		pprof.StopCPUProfile()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.allocMB = float64(m.TotalAlloc-p.mem0.TotalAlloc) / (1 << 20)
	r.mallocs = float64(m.Mallocs - p.mem0.Mallocs)
	r.gcCycles = float64(m.NumGC - p.mem0.NumGC)
	if p.prof == nil || p.err != nil {
		return p.err
	}
	stacks, err := decodeProfile(p.prof.Bytes())
	r.stacks = stacks
	return err
}

// liveHeapMB forces a collection and returns the live heap while keep —
// the world — is still referenced.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return float64(m.HeapAlloc) / (1 << 20)
}

// span is one public call the benchmark made, with the engine events it
// fired. Spans are held in memory and written out when the run ends.
type span struct {
	Repeat  int    `json:"repeat"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the run began
	DurNS   int64  `json:"dur_ns"`
	Fired   uint64 `json:"fired"`
	SimNS   int64  `json:"sim_ns"` // engine clock after the call
}

// tracer times the benchmark's calls into the program. While on, it
// profiles each repeat's timed phase and keeps a span per call; off, it
// only times.
type tracer struct {
	on     bool
	origin time.Time
	repeat int
	spans  []span
}

// call runs fn, the call named name, and returns its wall time. scn
// resolves the scenario the call steps (nil before one exists).
func (t *tracer) call(name string, scn func() *core.Scenario, fn func()) time.Duration {
	var before uint64
	if t.on {
		before, _ = engineState(scn())
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	if t.on {
		after, now := engineState(scn())
		t.spans = append(t.spans, span{
			Repeat:  t.repeat,
			Name:    name,
			StartNS: start.Sub(t.origin).Nanoseconds(),
			DurNS:   d.Nanoseconds(),
			Fired:   after - before,
			SimNS:   now,
		})
	}
	return d
}

// engineState reads a scenario's fired-event count and clock, zero before
// it has an engine.
func engineState(s *core.Scenario) (fired uint64, now int64) {
	if s == nil || s.Engine() == nil {
		return 0, 0
	}
	return s.Engine().Fired(), int64(s.Engine().Now())
}
