package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapZeroJobs(t *testing.T) {
	p := New(Config{Workers: 2})
	defer p.Close()
	res, err := p.Map(context.Background(), nil)
	if err != nil {
		t.Fatalf("zero jobs: unexpected error %v", err)
	}
	if res != nil {
		t.Fatalf("zero jobs: expected nil results, got %v", res)
	}
}

// TestMapOrderPreserved forces jobs to complete in reverse submission
// order and checks results still land in submission order.
func TestMapOrderPreserved(t *testing.T) {
	p := New(Config{Workers: 8})
	defer p.Close()
	const n = 8
	// Every job blocks until all are running, then job i waits for job
	// i+1 to finish first, so completion order is exactly reversed.
	running := make(chan struct{}, n)
	finished := make([]chan struct{}, n+1)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	close(finished[n])
	var started sync.WaitGroup
	started.Add(n)
	go func() {
		started.Wait()
		for i := 0; i < n; i++ {
			running <- struct{}{}
		}
	}()
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Run: func() (any, error) {
			started.Done()
			<-running
			<-finished[i+1]
			close(finished[i])
			return i, nil
		}}
	}
	res, err := p.Map(context.Background(), jobs)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	for i, r := range res {
		if r.Value != i {
			t.Errorf("slot %d holds %v, want %d", i, r.Value, i)
		}
	}
}

func TestSingleWorkerRunsSequentially(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	var concurrent, peak int32
	jobs := make([]Job, 10)
	for i := range jobs {
		i := i
		jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Run: func() (any, error) {
			c := atomic.AddInt32(&concurrent, 1)
			if c > atomic.LoadInt32(&peak) {
				atomic.StoreInt32(&peak, c)
			}
			atomic.AddInt32(&concurrent, -1)
			return i, nil
		}}
	}
	res, err := p.Map(context.Background(), jobs)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if got := atomic.LoadInt32(&peak); got != 1 {
		t.Errorf("peak concurrency %d with one worker", got)
	}
	for i, r := range res {
		if r.Value != i {
			t.Errorf("slot %d holds %v, want %d", i, r.Value, i)
		}
	}
}

// TestPanicExhaustsRetries: a panicking job runs exactly once — a job is
// a pure function of its inputs, so there is nothing a retry could fix —
// and becomes a typed JobError carrying the panic value and stack, inside
// a SweepError, while the healthy job's result survives.
func TestPanicExhaustsRetries(t *testing.T) {
	p := New(Config{Workers: 2})
	defer p.Close()
	var calls int32
	res, err := p.Map(context.Background(), []Job{
		{ID: "doomed", Run: func() (any, error) {
			atomic.AddInt32(&calls, 1)
			panic("unstable scenario")
		}},
		{ID: "fine", Run: func() (any, error) { return 42, nil }},
	})
	var sweep *SweepError
	if !errors.As(err, &sweep) {
		t.Fatalf("want SweepError, got %T: %v", err, err)
	}
	if sweep.Total != 2 || len(sweep.Failed) != 1 {
		t.Errorf("sweep reports %d/%d failed, want 1/2", len(sweep.Failed), sweep.Total)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Errorf("panicking job ran %d times, want 1", got)
	}
	je := res[0].Err
	if je == nil || je.Panic != "unstable scenario" || je.Err != nil {
		t.Errorf("job error %+v, want the panic value and no plain error", je)
	}
	if je != nil && !strings.Contains(je.Stack, "fleet") {
		t.Errorf("stack not captured: %q", je.Stack)
	}
	if res[1].Value != 42 || res[1].Err != nil {
		t.Errorf("healthy job lost: %+v", res[1])
	}
}

// TestPlainErrorNotRetried: a job returning an ordinary error runs once
// and its error is preserved in the job's slot.
func TestPlainErrorNotRetried(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	var calls int32
	boom := errors.New("boom")
	res, err := p.Map(context.Background(), []Job{{ID: "e", Run: func() (any, error) {
		atomic.AddInt32(&calls, 1)
		return nil, boom
	}}})
	if err == nil {
		t.Fatal("expected sweep error")
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Errorf("plain error ran %d times, want 1", got)
	}
	if !errors.Is(res[0].Err, boom) || res[0].Err.Panic != nil {
		t.Errorf("error not preserved: %v", res[0].Err)
	}
}

// TestCacheSingleFlight: two keyed jobs sharing a key compute once; a
// different key computes separately.
func TestCacheSingleFlight(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	var computes int32
	mk := func(id, key string) Job {
		return Job{ID: id, Key: key, Run: func() (any, error) {
			atomic.AddInt32(&computes, 1)
			return key + "-value", nil
		}}
	}
	res, err := p.Map(context.Background(), []Job{
		mk("a", "town|seed=1"), mk("b", "town|seed=1"), mk("c", "town|seed=2"),
	})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if got := atomic.LoadInt32(&computes); got != 2 {
		t.Errorf("computed %d times, want 2 (one per distinct key)", got)
	}
	if res[0].CacheHit || !res[1].CacheHit || res[2].CacheHit {
		t.Errorf("cache-hit flags %v/%v/%v, want false/true/false", res[0].CacheHit, res[1].CacheHit, res[2].CacheHit)
	}
	if res[1].Value != "town|seed=1-value" || res[2].Value != "town|seed=2-value" {
		t.Errorf("wrong cached values: %v / %v", res[1].Value, res[2].Value)
	}
	if p.CacheLen() != 2 {
		t.Errorf("cache holds %d keys, want 2", p.CacheLen())
	}
}

// TestKeyedPanicReplaysToEverySlot: keyed jobs sharing a key whose
// computation panics compute once, and every job's slot carries the panic
// under its own ID and index.
func TestKeyedPanicReplaysToEverySlot(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	var calls int32
	run := func() (any, error) {
		atomic.AddInt32(&calls, 1)
		panic("bad town")
	}
	res, err := p.Map(context.Background(), []Job{
		{ID: "a", Key: "town|seed=1", Run: run},
		{ID: "b", Key: "town|seed=1", Run: run},
	})
	if err == nil {
		t.Fatal("expected sweep error")
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Errorf("keyed computation ran %d times, want 1", got)
	}
	for i, id := range []string{"a", "b"} {
		je := res[i].Err
		if je == nil || je.ID != id || je.Index != i || je.Panic != "bad town" || je.Stack == "" {
			t.Errorf("slot %d: error %+v, want job %q's panic with its stack", i, je, id)
		}
	}
}

// TestCacheDistinguishesKeys guards against key collisions: the same job
// body under different keys must not share results.
func TestCacheDistinguishesKeys(t *testing.T) {
	p := New(Config{Workers: 2})
	defer p.Close()
	g := p.Group("exp")
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		v, hit, err := g.Do(fmt.Sprintf("exp|seed=%d|scale=1", seed), func() (any, error) {
			return seed * 10, nil
		})
		if err != nil || hit {
			t.Fatalf("seed %d: err=%v hit=%v", seed, err, hit)
		}
		if v != seed*10 {
			t.Errorf("seed %d served %v from a colliding key", seed, v)
		}
	}
	// Replays must hit and return the per-key value.
	v, hit, err := g.Do("exp|seed=2|scale=1", func() (any, error) { return int64(-1), nil })
	if err != nil || !hit || v != int64(20) {
		t.Errorf("replay: v=%v hit=%v err=%v, want 20/true/nil", v, hit, err)
	}
}

// TestCachePanicReplaysError: a panicking keyed compute must not wedge
// later requests for the key — they get the stored error immediately.
func TestCachePanicReplaysError(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	var calls int32
	compute := func() (any, error) {
		atomic.AddInt32(&calls, 1)
		panic("compute exploded")
	}
	_, _, err := p.Do("bad", compute)
	if err == nil {
		t.Fatal("want error from panicking compute")
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := p.Do("bad", compute)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("replayed request lost the error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second request for a failed key hung")
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Errorf("failed compute re-ran %d times", got)
	}
}

// TestCancellationMidSweep: cancelling the context while the sweep's first
// job blocks a single worker abandons the queued remainder with typed
// cancellation errors, while the running job completes.
func TestCancellationMidSweep(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	entered := make(chan struct{})
	jobs := []Job{
		{ID: "blocker", Run: func() (any, error) {
			close(entered)
			<-release
			return "done", nil
		}},
	}
	for i := 0; i < 5; i++ {
		i := i
		jobs = append(jobs, Job{ID: fmt.Sprintf("queued%d", i), Run: func() (any, error) { return i, nil }})
	}
	go func() {
		<-entered
		cancel()
		close(release)
	}()
	res, err := p.Map(ctx, jobs)
	var sweep *SweepError
	if !errors.As(err, &sweep) {
		t.Fatalf("want SweepError, got %v", err)
	}
	if res[0].Err != nil || res[0].Value != "done" {
		t.Errorf("running job should finish: %+v", res[0])
	}
	canceled := 0
	for _, r := range res[1:] {
		if r.Err != nil && errors.Is(r.Err, context.Canceled) {
			canceled++
		}
	}
	if canceled != len(jobs)-1 {
		t.Errorf("%d of %d queued jobs canceled, want all", canceled, len(jobs)-1)
	}
}

// TestTelemetryCounts verifies the event stream and final stats for a
// plain successful sweep.
func TestTelemetryCounts(t *testing.T) {
	var mu sync.Mutex
	counts := map[EventType]int{}
	p := New(Config{Workers: 4, OnEvent: func(ev Event) {
		mu.Lock()
		counts[ev.Type]++
		mu.Unlock()
	}})
	defer p.Close()
	g := p.Group("exp")
	const n = 12
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Run: func() (any, error) { return i, nil }}
	}
	if _, err := g.Map(context.Background(), jobs); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if counts[JobQueued] != n || counts[JobStarted] != n || counts[JobDone] != n {
		t.Errorf("events queued/started/done = %d/%d/%d, want %d each",
			counts[JobQueued], counts[JobStarted], counts[JobDone], n)
	}
	if counts[JobFailed] != 0 {
		t.Errorf("%d failure events on a clean sweep", counts[JobFailed])
	}
	s := p.Stats()
	if s.Done != n || s.Failed != 0 || s.Queued != 0 || s.Running != 0 {
		t.Errorf("final stats %+v", s)
	}
	gs := g.Stats()
	if gs.Jobs != n || gs.Failed != 0 {
		t.Errorf("group stats %+v", gs)
	}
}

// TestGroupAttribution: two groups sharing one pool keep separate
// counters.
func TestGroupAttribution(t *testing.T) {
	p := New(Config{Workers: 2})
	defer p.Close()
	ga, gb := p.Group("a"), p.Group("b")
	mk := func(n int) []Job {
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Run: func() (any, error) { return nil, nil }}
		}
		return jobs
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ga.Map(context.Background(), mk(3)) }()
	go func() { defer wg.Done(); gb.Map(context.Background(), mk(5)) }()
	wg.Wait()
	if got := ga.Stats().Jobs; got != 3 {
		t.Errorf("group a ran %d jobs, want 3", got)
	}
	if got := gb.Stats().Jobs; got != 5 {
		t.Errorf("group b ran %d jobs, want 5", got)
	}
}

// TestHealthAggregation: chaos jobs report fault/recovery counters via
// AddHealth; the pool sums across groups while each group keeps its own
// share.
func TestHealthAggregation(t *testing.T) {
	p := New(Config{Workers: 3})
	defer p.Close()
	if !p.Stats().Health.Empty() {
		t.Fatal("fresh pool reports non-empty health")
	}
	ga, gb := p.Group("a"), p.Group("b")
	mk := func(g *Group, n int, h Health) []Job {
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = Job{ID: fmt.Sprintf("%s%d", g.Name(), i), Run: func() (any, error) {
				g.AddHealth(h)
				return nil, nil
			}}
		}
		return jobs
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ga.Map(context.Background(), mk(ga, 4, Health{Faults: 2, Recoveries: 1, LinkDrops: 3}))
	}()
	go func() {
		defer wg.Done()
		gb.Map(context.Background(), mk(gb, 2, Health{Faults: 5}))
	}()
	wg.Wait()
	if got, want := ga.Stats().Health, (Health{Faults: 8, Recoveries: 4, LinkDrops: 12}); got != want {
		t.Errorf("group a health = %+v, want %+v", got, want)
	}
	if got, want := gb.Stats().Health, (Health{Faults: 10}); got != want {
		t.Errorf("group b health = %+v, want %+v", got, want)
	}
	if got, want := p.Stats().Health, (Health{Faults: 18, Recoveries: 4, LinkDrops: 12}); got != want {
		t.Errorf("pool health = %+v, want %+v", got, want)
	}
	if p.Stats().Health.Empty() {
		t.Error("Empty() = true after counters recorded")
	}
}

func TestWorkersDefault(t *testing.T) {
	p := New(Config{})
	defer p.Close()
	if p.Workers() < 1 {
		t.Errorf("default workers %d", p.Workers())
	}
	if got := New(Config{Workers: 3}); got.Workers() != 3 {
		got.Close()
		t.Errorf("explicit workers not honored")
	} else {
		got.Close()
	}
}
