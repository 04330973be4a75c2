package stripe

import (
	"testing"
	"testing/quick"
	"time"

	"spider/internal/sim"
)

// fakeNet simulates paths with fixed per-byte latency and optional failure.
type fakeNet struct {
	eng   *sim.Engine
	rate  map[int]float64 // bytes per second per path
	fail  map[int]bool    // path fails every fetch
	calls int
}

func (f *fakeNet) fetch(pathID int, size int64, done func(bool)) {
	f.calls++
	if f.fail[pathID] {
		f.eng.Schedule(10*time.Millisecond, func() { done(false) })
		return
	}
	rate := f.rate[pathID]
	if rate <= 0 {
		rate = 100000
	}
	d := time.Duration(float64(size) / rate * float64(time.Second))
	f.eng.Schedule(d, func() { done(true) })
}

func newRig(total int64) (*sim.Engine, *fakeNet, *Controller) {
	eng := sim.NewEngine()
	net := &fakeNet{eng: eng, rate: map[int]float64{}, fail: map[int]bool{}}
	c := New(eng, total, net.fetch)
	return eng, net, c
}

func TestBlockPartition(t *testing.T) {
	_, _, c := newRig(3*blockSize + 100_000)
	if len(c.blocks) != 4 {
		t.Fatalf("blocks = %d, want 4 (3×256 KiB + 100k)", len(c.blocks))
	}
	_, _, c2 := newRig(blockSize)
	if len(c2.blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(c2.blocks))
	}
}

func TestSinglePathCompletes(t *testing.T) {
	eng, _, c := newRig(1_000_000)
	completed := false
	c.OnComplete = func() { completed = true }
	c.AddPath(1)
	eng.Run(time.Minute)
	if !completed || !c.Done() {
		t.Fatalf("done=%v completed=%v", c.Done(), completed)
	}
	if p := c.paths[1]; p.fetched != 1_000_000 || p.failed != 0 {
		t.Fatalf("path stats = %d/%d", p.fetched, p.failed)
	}
}

func TestTwoPathsShareWork(t *testing.T) {
	const total = 20 * blockSize
	eng, net, c := newRig(total)
	net.rate[1] = 1_000_000
	net.rate[2] = 1_000_000
	c.AddPath(1)
	c.AddPath(2)
	eng.Run(time.Minute)
	if !c.Done() {
		t.Fatal("not done")
	}
	f1, f2 := c.paths[1].fetched, c.paths[2].fetched
	if f1 == 0 || f2 == 0 {
		t.Fatalf("one path idle: %d/%d", f1, f2)
	}
	// Equal rates: roughly equal shares.
	if f1 < 3*total/10 || f2 < 3*total/10 {
		t.Fatalf("imbalanced shares: %d/%d", f1, f2)
	}
}

func TestFasterPathFetchesMore(t *testing.T) {
	eng, net, c := newRig(16 * blockSize)
	net.rate[1] = 2_000_000
	net.rate[2] = 500_000
	c.AddPath(1)
	c.AddPath(2)
	eng.Run(time.Minute)
	f1, f2 := c.paths[1].fetched, c.paths[2].fetched
	if f1 <= f2*2 {
		t.Fatalf("4×-faster path fetched %d vs %d", f1, f2)
	}
}

func TestStripingBeatsBestSinglePath(t *testing.T) {
	run := func(paths map[int]float64) sim.Time {
		eng := sim.NewEngine()
		net := &fakeNet{eng: eng, rate: paths, fail: map[int]bool{}}
		c := New(eng, 8_000_000, net.fetch)
		var doneAt sim.Time = -1
		c.OnComplete = func() { doneAt = eng.Now() }
		for id := range paths {
			c.AddPath(id)
		}
		eng.Run(10 * time.Minute)
		return doneAt
	}
	single := run(map[int]float64{1: 1_000_000})
	striped := run(map[int]float64{1: 1_000_000, 2: 800_000, 3: 500_000})
	if striped <= 0 || single <= 0 {
		t.Fatal("runs incomplete")
	}
	if float64(striped) > 0.6*float64(single) {
		t.Fatalf("striping %v not much faster than single %v", striped, single)
	}
}

func TestPathDeathReassignsBlock(t *testing.T) {
	eng, net, c := newRig(blockSize)
	net.rate[1] = 50_000 // ≈5 s fetch
	net.rate[2] = 1_000_000
	c.AddPath(1)
	eng.Run(time.Second)
	if c.Done() {
		t.Fatal("done too early")
	}
	// Path 1 dies mid-block; path 2 arrives and must take it over.
	c.RemovePath(1)
	c.AddPath(2)
	eng.Run(eng.Now() + 2*time.Second)
	if !c.Done() {
		t.Fatal("block not reassigned after path death")
	}
}

// TestPathChurnCompletes: paths come and go repeatedly mid-transfer (the
// pattern chaos-driven AP crashes produce); the object must still finish
// without stalling as long as some path is eventually alive.
func TestPathChurnCompletes(t *testing.T) {
	eng, net, c := newRig(8 * blockSize)
	net.rate[1] = 2_000_000 // ≈130 ms per block
	net.rate[2] = 2_000_000
	completed := false
	c.OnComplete = func() { completed = true }
	c.AddPath(1)
	// Every 300 ms one path dies and the other (re)joins, alternating.
	alive := 1
	churn := eng.Ticker(300*time.Millisecond, func() {
		if c.Done() {
			return
		}
		next := 3 - alive
		c.AddPath(next)
		c.RemovePath(alive)
		alive = next
	})
	eng.Run(time.Minute)
	churn.Stop()
	if !completed || !c.Done() {
		t.Fatalf("transfer did not survive path churn: done=%v", c.Done())
	}
	if c.doneCnt != len(c.blocks) {
		t.Fatalf("progress %d/%d after completion", c.doneCnt, len(c.blocks))
	}
	// Churn abandons in-flight blocks, so more fetches are issued than
	// blocks exist — but each block is still delivered exactly once.
	if c.FetchesIssued < len(c.blocks) {
		t.Fatalf("issued %d fetches for %d blocks", c.FetchesIssued, len(c.blocks))
	}
}

func TestFailingPathDoesNotStall(t *testing.T) {
	eng, net, c := newRig(4 * blockSize)
	net.fail[1] = true
	net.rate[2] = 1_000_000
	c.AddPath(1)
	c.AddPath(2)
	eng.Run(time.Minute)
	if !c.Done() {
		t.Fatal("transfer stalled behind a failing path")
	}
	if c.FetchesFailed == 0 {
		t.Fatal("failures not counted")
	}
	if c.paths[1].failed == 0 {
		t.Fatal("failing path shows no failures")
	}
}

func TestDuplicateTailMitigatesStraggler(t *testing.T) {
	const (
		total = 4 * blockSize
		fast  = 2_000_000 // bytes/s
		join  = 10 * time.Millisecond
	)
	eng := sim.NewEngine()
	net := &fakeNet{eng: eng, rate: map[int]float64{1: fast, 2: 50_000}, fail: map[int]bool{}}
	c := New(eng, total, net.fetch)
	var doneAt sim.Time = -1
	c.OnComplete = func() { doneAt = eng.Now() }
	// The slow path grabs a block early and would crawl over it for ≈5 s.
	c.AddPath(2)
	eng.Run(join)
	c.AddPath(1)
	eng.Run(5 * time.Minute)
	if doneAt <= 0 {
		t.Fatal("incomplete run")
	}
	// The fast path re-fetches the straggler's block, so the object
	// arrives no later than the fast path alone could fetch all of it.
	if bound := join + time.Duration(float64(total)/fast*float64(time.Second)); doneAt > bound {
		t.Fatalf("finished at %v, after the fast path's %v for the whole object", doneAt, bound)
	}
	if c.DuplicateFetch == 0 {
		t.Fatal("the straggler's block was not duplicated")
	}
}

func TestDuplicateCompletionCountedOnce(t *testing.T) {
	eng, net, c := newRig(blockSize)
	net.rate[1] = 500_000
	net.rate[2] = 450_000
	c.AddPath(1)
	c.AddPath(2) // duplicates the only block
	completions := 0
	c.OnComplete = func() { completions++ }
	eng.Run(time.Minute)
	if c.doneCnt != len(c.blocks) {
		t.Fatalf("progress %d/%d", c.doneCnt, len(c.blocks))
	}
	if completions != 1 {
		t.Fatalf("OnComplete fired %d times", completions)
	}
	if c.DuplicateFetch == 0 {
		t.Fatal("duplicate fetch not recorded")
	}
}

func TestRemoveUnknownPathIsNoop(t *testing.T) {
	_, _, c := newRig(100)
	c.RemovePath(99) // must not panic
}

func TestAddDuplicatePathPanics(t *testing.T) {
	_, _, c := newRig(100)
	c.AddPath(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddPath did not panic")
		}
	}()
	c.AddPath(1)
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine()
	for _, fn := range []func(){
		func() { New(eng, 0, func(int, int64, func(bool)) {}) },
		func() { New(eng, 100, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid New did not panic")
				}
			}()
			fn()
		}()
	}
}

// Property: for any object size, the blocks partition the object exactly
// and completion delivers every block once.
func TestPropertyPartitionAndCompletion(t *testing.T) {
	f := func(totalRaw uint32, nPaths uint8) bool {
		total := int64(totalRaw%5_000_000) + 1
		paths := int(nPaths%4) + 1
		eng := sim.NewEngine()
		net := &fakeNet{eng: eng, rate: map[int]float64{}, fail: map[int]bool{}}
		c := New(eng, total, net.fetch)
		var sum int64
		for _, b := range c.blocks {
			sum += b.size
		}
		if sum != total {
			return false
		}
		for i := 0; i < paths; i++ {
			net.rate[i] = 1_000_000
			c.AddPath(i)
		}
		eng.Run(time.Hour)
		return c.Done()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
