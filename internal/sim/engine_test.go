package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("events at equal time fired out of order: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-time.Second, func() { fired = true })
	e.RunAll()
	if !fired {
		t.Fatal("event with negative delay never fired")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved backwards: %v", e.Now())
	}
}

// TestCancel stops an armed timer: it never fires, and a second Stop is
// a no-op.
func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	var tm Timer
	tm.Bind(e, Func(func() { fired = true }))
	tm.Reset(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop returned false for an armed timer")
	}
	if tm.Stop() {
		t.Fatal("Stop returned true for a stopped timer")
	}
	e.RunAll()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Armed() || e.Pending() != 0 {
		t.Fatalf("after Stop: armed=%v pending=%d", tm.Armed(), e.Pending())
	}
}

// TestCancelNil stops a timer that was never armed, or even bound.
func TestCancelNil(t *testing.T) {
	var tm Timer
	if tm.Stop() || tm.Armed() {
		t.Fatal("a zero Timer reported itself armed")
	}
}

// TestDelayPastInfinitySaturates: a delay that would carry the clock past
// the last Time holds the event at Infinity, so no bounded Run fires it,
// for Schedule, ScheduleCall and Timer.Reset alike.
func TestDelayPastInfinitySaturates(t *testing.T) {
	e := NewEngine()
	e.Run(60 * time.Second)
	fired := 0
	count := func() { fired++ }
	e.Schedule(Infinity, count)
	e.ScheduleCall(Infinity-time.Second, Func(count))
	var tm Timer
	tm.Bind(e, Func(count))
	tm.Reset(Infinity)
	if tm.At() != Infinity {
		t.Fatalf("timer armed at %v, want Infinity", tm.At())
	}
	e.Run(Infinity - 1)
	if fired != 0 || e.Pending() != 3 {
		t.Fatalf("by Infinity-1: fired %d, pending %d; want 0 and 3", fired, e.Pending())
	}
	e.RunAll()
	if fired != 3 || e.Now() != Infinity {
		t.Fatalf("after RunAll: fired %d at %v, want 3 at Infinity", fired, e.Now())
	}
}

// TestNodeFitsCacheLine pins a node at one 64-byte cache line on 64-bit
// builds: one callback field and no timer back-pointer.
func TestNodeFitsCacheLine(t *testing.T) {
	if bits.UintSize != 64 {
		t.Skip("the node's size is pinned on 64-bit builds")
	}
	if got := unsafe.Sizeof(node{}); got != 64 {
		t.Fatalf("node is %d bytes, want 64", got)
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.Run(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
	e.Run(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events after second run, want 3", len(fired))
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("clock = %v, want 10s (advance to until)", e.Now())
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 5 {
			e.Schedule(time.Millisecond, recur)
		}
	}
	e.Schedule(0, recur)
	e.RunAll()
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if e.Now() != 4*time.Millisecond {
		t.Fatalf("clock = %v, want 4ms", e.Now())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	ticks := 0
	var tk *Ticker
	tk = e.Ticker(100*time.Millisecond, func() {
		ticks++
		if ticks == 5 {
			tk.Stop()
		}
	})
	e.Run(10 * time.Second)
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
}

func TestTickerPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Ticker(0) did not panic")
		}
	}()
	NewEngine().Ticker(0, func() {})
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	NewEngine().Schedule(0, nil)
}

// Property: for any set of delays, events fire in non-decreasing time order
// and the final clock equals the max delay.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		var max Time
		for _, d := range delays {
			dd := Time(d) * time.Millisecond
			if dd > max {
				max = dd
			}
			e.Schedule(dd, func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RNG streams with distinct labels are decorrelated and
// deterministic for a fixed seed.
func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Stream("phy")
	b := NewRNG(42).Stream("phy")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed+label produced different streams")
		}
	}
	c := NewRNG(42).Stream("phy")
	d := NewRNG(42).Stream("dhcp")
	same := 0
	for i := 0; i < 100; i++ {
		if c.Float64() == d.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("streams with different labels coincide on %d/100 draws", same)
	}

	// Lazy seeding changes no draw: a NewRNG/Stream/Derive chain yields
	// exactly what eagerly seeded math/rand sources yield, whatever order
	// the generators are first drawn from.
	eager := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	deriveSeed := func(parent int64, label string) int64 {
		return fnv1a(label) ^ (parent * 0x5851f42d4c957f2d) ^ 0x14057b7ef767814f
	}
	root := NewRNG(42)
	eRoot := eager(42)
	s1 := root.Stream("phy")
	s1Seed := fnv1a("phy") ^ eRoot.Int63()
	e1 := eager(s1Seed)
	dv := s1.Derive("client-7") // never draws from s1
	eDv := eager(deriveSeed(s1Seed, "client-7"))
	s2 := dv.Stream("dhcp")
	eS2 := eager(fnv1a("dhcp") ^ eDv.Int63())
	if root.Int63() != eRoot.Int63() {
		t.Fatal("root drifted after spawning a stream")
	}
	for i := 0; i < 100; i++ {
		if s2.Float64() != eS2.Float64() || dv.Intn(1000) != eDv.Intn(1000) ||
			s1.ExpFloat64() != e1.ExpFloat64() || s1.NormFloat64() != e1.NormFloat64() {
			t.Fatalf("lazily seeded chain diverged from eager sources at draw %d", i)
		}
	}
}

// TestRNGUndrawnChildIsFree pins the point of lazy seeding: a Derived or
// Streamed child that is never drawn from costs one small struct, not the
// ~4.9KB math/rand source.
func TestRNGUndrawnChildIsFree(t *testing.T) {
	parent := NewRNG(7)
	parent.Int63() // seed the parent outside the measurement
	if c := parent.Derive("x"); c.r != nil {
		t.Fatal("Derive seeded the child's source")
	}
	if c := parent.Stream("x"); c.r != nil {
		t.Fatal("Stream seeded the child's source")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	kids := make([]*RNG, 100)
	for i := range kids {
		kids[i] = parent.Derive("x")
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(kids)); per > 256 {
		t.Errorf("undrawn child costs %d bytes, want a bare struct", per)
	}
	runtime.KeepAlive(kids)
}

func TestRNGBoolEdges(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 50; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestRNGUniformDuration(t *testing.T) {
	g := NewRNG(7)
	lo, hi := 500*time.Millisecond, 5*time.Second
	for i := 0; i < 1000; i++ {
		v := g.UniformDuration(lo, hi)
		if v < lo || v >= hi {
			t.Fatalf("UniformDuration out of range: %v", v)
		}
	}
	if g.UniformDuration(hi, lo) != hi {
		t.Fatal("degenerate range should return lo")
	}
}

func TestRunAllDrainsQueue(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 0; i < 100; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() { fired++ })
	}
	e.RunAll()
	if fired != 100 || e.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d", fired, e.Pending())
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	e.Schedule(0, func() {})
	e.Schedule(0, func() {})
	e.RunAll()
	if e.Fired() != 2 {
		t.Fatalf("Fired = %d", e.Fired())
	}
}

// TestEventAccessors pins a timer's At and Armed through arm, move, fire
// and a re-arm into the past, which clamps to now.
func TestEventAccessors(t *testing.T) {
	e := NewEngine()
	var tm Timer
	tm.Bind(e, Func(func() {}))
	if tm.At() != 0 {
		t.Fatalf("disarmed At = %v", tm.At())
	}
	tm.Reset(5 * time.Second)
	if !tm.Armed() || tm.At() != 5*time.Second {
		t.Fatalf("armed=%v At=%v, want armed at 5s", tm.Armed(), tm.At())
	}
	tm.ResetAt(3 * time.Second)
	if tm.At() != 3*time.Second || e.Pending() != 1 {
		t.Fatalf("after a move: At=%v pending=%d", tm.At(), e.Pending())
	}
	e.RunAll()
	if tm.Armed() || tm.At() != 0 || e.Now() != 3*time.Second {
		t.Fatalf("after firing: armed=%v At=%v now=%v", tm.Armed(), tm.At(), e.Now())
	}
	tm.ResetAt(time.Second)
	if tm.At() != 3*time.Second {
		t.Fatalf("ResetAt in the past: At=%v, want now (3s)", tm.At())
	}
}

func TestCancelDuringTick(t *testing.T) {
	// Stopping a later timer from within an earlier event must work.
	e := NewEngine()
	var late Timer
	lateFired := false
	late.Bind(e, Func(func() { lateFired = true }))
	late.Reset(2 * time.Second)
	e.Schedule(time.Second, func() { late.Stop() })
	e.RunAll()
	if lateFired {
		t.Fatal("stopped timer fired")
	}
}

// TestTimerResetTakesNextSequence pins the move contract: a timer moved
// onto an instant other events hold orders after every event scheduled
// before the move, as cancel-then-schedule would, even when it was
// armed first; and one re-armed by its own callback fires again.
func TestTimerResetTakesNextSequence(t *testing.T) {
	e := NewEngine()
	var got []string
	var tm Timer
	rearms := 2
	tm.Bind(e, Func(func() {
		got = append(got, fmt.Sprintf("timer@%v", e.Now()))
		if rearms > 0 {
			rearms--
			tm.Reset(0)
		}
	}))
	tm.ResetAt(time.Second)
	e.ScheduleAt(time.Second, func() { got = append(got, "a") })
	e.ScheduleAt(2*time.Second, func() { got = append(got, "b") })
	tm.ResetAt(time.Second) // same instant, next sequence: after a
	e.ScheduleAt(time.Second, func() { got = append(got, "c") })
	e.Run(time.Second)
	if want := "[a timer@1s c timer@1s timer@1s]"; fmt.Sprint(got) != want {
		t.Fatalf("order = %v, want %s", got, want)
	}
	tm.ResetAt(2 * time.Second) // a fired timer re-armed: after b
	e.RunAll()
	if want := "[a timer@1s c timer@1s timer@1s b timer@2s]"; fmt.Sprint(got) != want {
		t.Fatalf("order = %v, want %s", got, want)
	}
}

// TestTimerZeroAlloc pins the point of Timer: once the node pool is warm,
// moving an armed timer, re-arming a fired one and re-arming a stopped
// one allocate nothing.
func TestTimerZeroAlloc(t *testing.T) {
	e := NewEngine()
	var tm Timer
	n := 0
	tm.Bind(e, Func(func() { n++ }))
	tm.Reset(time.Millisecond)
	e.RunAll() // warm the pool and the batch
	cases := []struct {
		name string
		op   func()
	}{
		{"move an armed timer", func() {
			tm.Reset(time.Millisecond)
			tm.Reset(2 * time.Millisecond)
			e.RunAll()
		}},
		{"re-arm a fired timer", func() {
			tm.Reset(time.Millisecond)
			e.RunAll()
		}},
		{"re-arm a stopped timer", func() {
			tm.Reset(time.Millisecond)
			tm.Stop()
			tm.Reset(time.Millisecond)
			e.RunAll()
		}},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.op); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op", c.name, allocs)
		}
	}
	if n == 0 {
		t.Fatal("timer never fired")
	}
}

func TestRNGPermAndIntn(t *testing.T) {
	g := NewRNG(3)
	p := g.Perm(10)
	seen := map[int]bool{}
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad perm %v", p)
		}
		seen[v] = true
	}
	for i := 0; i < 100; i++ {
		if v := g.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestExpDuration(t *testing.T) {
	g := NewRNG(9)
	var total time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		total += g.ExpDuration(time.Second)
	}
	mean := total / n
	if mean < 900*time.Millisecond || mean > 1100*time.Millisecond {
		t.Fatalf("exp mean = %v, want ≈1s", mean)
	}
}

// TestExpDurationSaturates: a draw past the last Time comes out as
// Infinity, never as a wrapped negative duration. With mean Infinity that
// is every draw of at least the mean, about 1/e of them.
func TestExpDurationSaturates(t *testing.T) {
	g := NewRNG(5)
	saturated := 0
	for i := 0; i < 10000; i++ {
		switch d := g.ExpDuration(Infinity); {
		case d < 0:
			t.Fatalf("draw %d: ExpDuration(Infinity) = %v", i, d)
		case d == Infinity:
			saturated++
		}
	}
	if saturated == 0 {
		t.Fatal("no draw saturated at Infinity")
	}
}

// PeekNext returns the virtual time of the earliest scheduled event
// without firing it, and false when the queue is empty. A stopped Timer
// leaves the queue at once, so the reported time is always live. The
// differential tests and FuzzEngine check it against the heap reference.
func (e *Engine) PeekNext() (Time, bool) {
	if n := e.next(); n != nil {
		return n.at, true
	}
	return 0, false
}

func TestPeekNextEmpty(t *testing.T) {
	e := NewEngine()
	if at, ok := e.PeekNext(); ok || at != 0 {
		t.Fatalf("PeekNext on empty queue = (%v, %v), want (0, false)", at, ok)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending on empty queue = %d, want 0", e.Pending())
	}
}

func TestPeekNextReportsHead(t *testing.T) {
	e := NewEngine()
	e.Schedule(3*time.Second, func() {})
	e.Schedule(time.Second, func() {})
	if at, ok := e.PeekNext(); !ok || at != time.Second {
		t.Fatalf("PeekNext = (%v, %v), want (1s, true)", at, ok)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run(time.Second)
	if at, ok := e.PeekNext(); !ok || at != 3*time.Second {
		t.Fatalf("PeekNext after running head = (%v, %v), want (3s, true)", at, ok)
	}
}

func TestPeekNextAfterCancelledHead(t *testing.T) {
	e := NewEngine()
	var head Timer
	head.Bind(e, Func(func() {}))
	head.Reset(time.Second)
	e.Schedule(2*time.Second, func() {})
	head.Stop()
	// Stop removes the timer from the queue immediately, so the peek
	// must report the surviving event, never the stopped head.
	if at, ok := e.PeekNext(); !ok || at != 2*time.Second {
		t.Fatalf("PeekNext after stopping head = (%v, %v), want (2s, true)", at, ok)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending after stop = %d, want 1", e.Pending())
	}
	head.Stop()
	if e.Pending() != 1 {
		t.Fatalf("double stop changed Pending to %d", e.Pending())
	}
}
