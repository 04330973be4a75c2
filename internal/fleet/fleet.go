// Package fleet is the experiment-execution engine: it shards independent
// simulation jobs (per-seed trials, per-config town drives, per-point model
// sweeps) across a bounded worker pool while preserving bit-for-bit
// determinism. Three properties make parallel sweeps safe:
//
//  1. Jobs are pure functions of their inputs — each owns its seeded RNG
//     and sim engine, so execution order cannot perturb results.
//  2. Results are merged in canonical submission order regardless of
//     completion order, so rendered output is byte-identical to a
//     sequential run.
//  3. A panicking job is isolated: the panic is captured with its stack
//     and reported as a typed per-job error, so one diverging scenario
//     cannot kill a 200-job sweep. It is not retried: a job is a pure
//     function of its inputs, so a second run panics again, and a retry
//     that succeeded would hide exactly the nondeterminism the
//     worker-invariance tests exist to catch.
//
// A content-keyed single-flight cache (see cache.go) memoizes expensive
// shared computations such as the town study, and a telemetry layer (see
// telemetry.go) reports queue depth, per-job wall time, and an ETA, all
// read from the wall clock — telemetry only, never results or cache keys.
package fleet

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"spider/internal/obs"
)

// Config parameterizes a Pool.
type Config struct {
	// Workers bounds concurrent job execution; <=0 means runtime.NumCPU().
	Workers int
	// OnEvent, when non-nil, receives telemetry for every job lifecycle
	// transition. Callbacks are serialized and must be fast.
	OnEvent func(Event)
}

// Job is one independent unit of work.
type Job struct {
	// ID labels the job in telemetry and error reports.
	ID string
	// Run computes the result. It must be a pure function of state
	// captured at job construction; it may panic.
	Run func() (any, error)
}

// JobResult is the outcome of one job, reported in submission order.
type JobResult struct {
	ID    string
	Value any
	Err   *JobError
	Wall  time.Duration
}

// JobError is the typed failure report for a single job.
type JobError struct {
	ID    string
	Index int
	// Panic holds the recovered panic value when the job panicked.
	Panic any
	// Stack is the goroutine stack at the panic.
	Stack string
	// Err holds a plain job error or a cancellation error.
	Err error
}

func (e *JobError) Error() string {
	switch {
	case e.Panic != nil:
		return fmt.Sprintf("fleet: job %q (index %d) panicked: %v", e.ID, e.Index, e.Panic)
	case e.Err != nil:
		return fmt.Sprintf("fleet: job %q (index %d): %v", e.ID, e.Index, e.Err)
	default:
		return fmt.Sprintf("fleet: job %q (index %d) failed", e.ID, e.Index)
	}
}

func (e *JobError) Unwrap() error { return e.Err }

// SweepError aggregates every job failure in one Map call. The sweep still
// completes: successful results are present alongside this report.
type SweepError struct {
	Total  int
	Failed []*JobError
}

func (e *SweepError) Error() string {
	if len(e.Failed) == 1 {
		return fmt.Sprintf("fleet: 1 of %d jobs failed: %v", e.Total, e.Failed[0])
	}
	return fmt.Sprintf("fleet: %d of %d jobs failed (first: %v)", len(e.Failed), e.Total, e.Failed[0])
}

// Pool executes jobs on a fixed set of workers.
type Pool struct {
	cfg     Config
	workers int
	tasks   chan *task
	done    sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	start   time.Time
	queued  int
	running int
	ndone   int
	nfailed int
	hits    int
	wallSum time.Duration
	health  Health
	events  obs.Summary

	cacheMu sync.Mutex
	cache   map[string]*cacheEntry
}

type task struct {
	job   Job
	idx   int
	ctx   context.Context
	out   *JobResult
	wg    *sync.WaitGroup
	group *Group
}

// New starts a pool. Close it when every sweep has returned.
func New(cfg Config) *Pool {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	p := &Pool{
		cfg:     cfg,
		workers: w,
		tasks:   make(chan *task),
		start:   time.Now(),
		cache:   make(map[string]*cacheEntry),
	}
	p.done.Add(w)
	for i := 0; i < w; i++ {
		go p.worker()
	}
	return p
}

// Workers reports the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers. It must only be called after every Map call
// has returned; further use of the pool panics.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.tasks)
	p.done.Wait()
}

// Map executes jobs on the group's pool, attributed to the group, and
// returns their results in job order, regardless of completion order.
// Failed jobs are reported both in their JobResult slot and in the
// returned *SweepError; successful results are always present. A
// canceled ctx skips jobs that have not started.
func (g *Group) Map(ctx context.Context, jobs []Job) ([]JobResult, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := g.pool
	results := make([]JobResult, len(jobs))
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i := range jobs {
		t := &task{job: jobs[i], idx: i, ctx: ctx, out: &results[i], wg: &wg, group: g}
		p.noteQueued(t)
		select {
		case p.tasks <- t:
		case <-ctx.Done():
			p.finishTask(t, JobResult{
				ID:  t.job.ID,
				Err: &JobError{ID: t.job.ID, Index: t.idx, Err: ctx.Err()},
			}, time.Time{})
		}
	}
	wg.Wait()
	var failed []*JobError
	for i := range results {
		results[i].ID = jobs[i].ID
		if results[i].Err != nil {
			failed = append(failed, results[i].Err)
		}
	}
	if len(failed) > 0 {
		return results, &SweepError{Total: len(jobs), Failed: failed}
	}
	return results, nil
}

func (p *Pool) worker() {
	defer p.done.Done()
	for t := range p.tasks {
		p.exec(t)
	}
}

func (p *Pool) exec(t *task) {
	if t.ctx.Err() != nil {
		p.finishTask(t, JobResult{
			ID:  t.job.ID,
			Err: &JobError{ID: t.job.ID, Index: t.idx, Err: t.ctx.Err()},
		}, time.Time{})
		return
	}
	p.noteStarted(t)
	start := time.Now()
	value, err := safeRun(t.job.Run)
	res := JobResult{ID: t.job.ID}
	if err != nil {
		res.Err = &JobError{ID: t.job.ID, Index: t.idx}
		if pe, ok := err.(*panicError); ok {
			res.Err.Panic, res.Err.Stack = pe.value, pe.stack
		} else {
			res.Err.Err = err
		}
	} else {
		res.Value = value
	}
	res.Wall = time.Since(start)
	p.finishTask(t, res, start)
}

// panicError carries a recovered panic across the safeRun boundary.
type panicError struct {
	value any
	stack string
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.value) }

func safeRun(fn func() (any, error)) (value any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{value: r, stack: string(debug.Stack())}
		}
	}()
	return fn()
}
