package fleet

import (
	"sync"
	"time"

	"spider/internal/obs"
)

// EventType enumerates job lifecycle transitions.
type EventType int

const (
	// JobQueued fires when a job enters the queue.
	JobQueued EventType = iota
	// JobStarted fires when a worker picks the job up.
	JobStarted
	// JobDone fires when a job completes successfully.
	JobDone
	// JobFailed fires when a job panics, returns an error, or is canceled.
	JobFailed
	// CacheHit fires when a keyed computation is served from the cache.
	CacheHit
	// CacheMiss fires when a keyed computation must be computed.
	CacheMiss
)

func (t EventType) String() string {
	switch t {
	case JobQueued:
		return "queued"
	case JobStarted:
		return "started"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case CacheHit:
		return "cache-hit"
	case CacheMiss:
		return "cache-miss"
	default:
		return "unknown"
	}
}

// Event is one telemetry sample. Stats is a consistent snapshot taken at
// the moment of the transition.
type Event struct {
	Type  EventType
	Job   string
	Group string
	// Wall is the job's wall time (JobDone/JobFailed only).
	Wall time.Duration
	// Err is the failure being reported (JobFailed only).
	Err   error
	Stats Stats
}

// Health aggregates the outcomes every simulation run reports: how many
// injected faults landed (zero without a fault plan), how many outages
// its clients recovered from, and how many links were torn down.
type Health struct {
	Faults     int64
	Recoveries int64
	LinkDrops  int64
}

func (h *Health) add(o Health) {
	h.Faults += o.Faults
	h.Recoveries += o.Recoveries
	h.LinkDrops += o.LinkDrops
}

// Empty reports whether no health counters were recorded.
func (h Health) Empty() bool { return h == Health{} }

// Stats is a point-in-time view of pool progress.
type Stats struct {
	Workers   int
	Queued    int
	Running   int
	Done      int
	Failed    int
	CacheHits int
	// WallSum is the total wall time spent in completed jobs — the
	// sequential-equivalent cost of the work done so far.
	WallSum time.Duration
	// Elapsed is real time since the pool started.
	Elapsed time.Duration
	// ETA estimates the remaining wall-clock time from the mean job cost
	// and the worker count; zero when nothing is pending or no job has
	// finished yet.
	ETA time.Duration
	// Health sums the fault/recovery counters jobs reported.
	Health Health
	// Events sums the per-kind event counts jobs reported via AddEvents.
	// Addition commutes, so the totals are identical at any worker count.
	Events obs.Summary
}

// Stats returns a consistent snapshot of pool progress.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.statsLocked()
}

func (p *Pool) statsLocked() Stats {
	s := Stats{
		Workers:   p.workers,
		Queued:    p.queued,
		Running:   p.running,
		Done:      p.ndone,
		Failed:    p.nfailed,
		CacheHits: p.hits,
		WallSum:   p.wallSum,
		Elapsed:   p.clock.Since(p.start),
		Health:    p.health,
		Events:    p.events,
	}
	finished := s.Done + s.Failed
	pending := s.Queued + s.Running
	if finished > 0 && pending > 0 {
		mean := s.WallSum / time.Duration(finished)
		s.ETA = mean * time.Duration(pending) / time.Duration(p.workers)
	}
	return s
}

func (p *Pool) noteQueued(t *task) {
	p.mu.Lock()
	p.queued++
	ev := Event{Type: JobQueued, Job: t.job.ID, Group: t.group.name, Stats: p.statsLocked()}
	p.mu.Unlock()
	p.event(ev)
}

func (p *Pool) noteStarted(t *task) {
	p.mu.Lock()
	p.queued--
	p.running++
	ev := Event{Type: JobStarted, Job: t.job.ID, Group: t.group.name, Stats: p.statsLocked()}
	p.mu.Unlock()
	p.event(ev)
}

// finishTask records the result, updates counters, emits telemetry, and
// releases the sweep's waitgroup slot. A zero start means the job never
// ran (cancellation before start).
func (p *Pool) finishTask(t *task, res JobResult, started time.Time) {
	*t.out = res
	p.mu.Lock()
	if started.IsZero() {
		p.queued-- // skipped before any worker picked it up
	} else {
		p.running--
	}
	typ := JobDone
	if res.Err != nil {
		typ = JobFailed
		p.nfailed++
	} else {
		p.ndone++
	}
	p.wallSum += res.Wall
	var evErr error
	if res.Err != nil {
		evErr = res.Err
	}
	ev := Event{Type: typ, Job: t.job.ID, Group: t.group.name, Wall: res.Wall, Err: evErr, Stats: p.statsLocked()}
	p.mu.Unlock()

	t.group.record(res)
	p.event(ev)
	t.wg.Done()
}

func (p *Pool) noteCache(g *Group, key string, hit bool) {
	p.mu.Lock()
	typ := CacheMiss
	if hit {
		typ = CacheHit
		p.hits++
	} else {
		p.misses++
	}
	ev := Event{Type: typ, Job: key, Group: g.name, Stats: p.statsLocked()}
	p.mu.Unlock()
	g.recordCache(hit)
	p.event(ev)
}

func (p *Pool) event(ev Event) {
	if p.cfg.OnEvent != nil {
		p.cfg.OnEvent(ev)
	}
}

// Group attributes a slice of pool activity — typically one experiment —
// so per-experiment job counts, cache hits, and wall time can be reported
// even though every group shares the same bounded worker set.
type Group struct {
	pool *Pool
	name string

	mu     sync.Mutex
	jobs   int
	failed int
	hits   int
	misses int
	wall   time.Duration
	health Health
	events obs.Summary
}

// Group returns a named telemetry scope on the pool.
func (p *Pool) Group(name string) *Group {
	return &Group{pool: p, name: name}
}

// Pool returns the pool this group executes on.
func (g *Group) Pool() *Pool { return g.pool }

// Name returns the group's label.
func (g *Group) Name() string { return g.name }

func (g *Group) record(res JobResult) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.jobs++
	if res.Err != nil {
		g.failed++
	}
	g.wall += res.Wall
}

// AddHealth folds one completed job's fault/recovery counters into the
// group and pool totals, surfacing run health through Stats and the
// -progress printer. Safe to call from job functions on any worker.
func (g *Group) AddHealth(h Health) {
	g.mu.Lock()
	g.health.add(h)
	g.mu.Unlock()
	g.pool.mu.Lock()
	g.pool.health.add(h)
	g.pool.mu.Unlock()
}

// AddEvents folds one completed job's per-kind event summary into the
// group and pool totals. Summary addition commutes, so the merged counts
// are independent of completion order and worker count. Safe to call
// from job functions on any worker.
func (g *Group) AddEvents(s obs.Summary) {
	g.mu.Lock()
	g.events.Add(s)
	g.mu.Unlock()
	g.pool.mu.Lock()
	g.pool.events.Add(s)
	g.pool.mu.Unlock()
}

func (g *Group) recordCache(hit bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if hit {
		g.hits++
	} else {
		g.misses++
	}
}

// GroupStats summarizes one group's completed activity.
type GroupStats struct {
	Jobs      int
	Failed    int
	CacheHits int
	// JobWall is the sum of this group's job wall times (the cost a
	// sequential run would have paid).
	JobWall time.Duration
	// Health sums the fault/recovery counters this group's jobs reported.
	Health Health
	// Events sums the per-kind event summaries this group's jobs reported.
	Events obs.Summary
}

// Stats snapshots the group's counters.
func (g *Group) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GroupStats{Jobs: g.jobs, Failed: g.failed, CacheHits: g.hits, JobWall: g.wall, Health: g.health, Events: g.events}
}
