package sim

import (
	"fmt"
	"testing"
	"time"
)

// differential harness: drive the timer-wheel Engine and the reference
// heapEngine through the same randomized workload and require identical
// (time, id) firing sequences, identical clocks, and identical counters.
// The rig's events are timers, so a workload can move and stop them; the
// reference timer is cancel-then-schedule (heapTimer).

type firing struct {
	at Time
	id int
}

// timerOps is the surface Timer and heapTimer share.
type timerOps interface {
	ResetAt(Time)
	Stop() bool
	Armed() bool
}

type diffRig struct {
	wheel *Engine
	heap  *heapEngine

	wheelLog []firing
	heapLog  []firing

	// Timer id is wheelTimers[id] on the wheel, heapTimers[id] on the
	// reference.
	wheelTimers map[int]*Timer
	heapTimers  map[int]*heapTimer
	nextID      int
}

func newDiffRig() *diffRig {
	return &diffRig{
		wheel:       NewEngine(),
		heap:        newHeapEngine(),
		wheelTimers: make(map[int]*Timer),
		heapTimers:  make(map[int]*heapTimer),
	}
}

// newTimer binds a disarmed timer under a new id on both engines. Its
// callback logs (now, id), then, when after is not nil, calls after with
// its side: 0 on the wheel, 1 on the reference.
func (r *diffRig) newTimer(after func(side int)) int {
	id := r.nextID
	r.nextID++
	wt := new(Timer)
	wt.Bind(r.wheel, Func(func() {
		r.wheelLog = append(r.wheelLog, firing{r.wheel.Now(), id})
		if after != nil {
			after(0)
		}
	}))
	r.wheelTimers[id] = wt
	r.heapTimers[id] = newHeapTimer(r.heap, func() {
		r.heapLog = append(r.heapLog, firing{r.heap.Now(), id})
		if after != nil {
			after(1)
		}
	})
	return id
}

// sideTimer returns timer id on one side of the rig and that side's clock.
func (r *diffRig) sideTimer(side, id int) (timerOps, Time) {
	if side == 0 {
		return r.wheelTimers[id], r.wheel.Now()
	}
	return r.heapTimers[id], r.heap.Now()
}

// scheduleAt arms a new logging timer at at on both engines and returns
// its id.
func (r *diffRig) scheduleAt(at Time) int {
	id := r.newTimer(nil)
	r.resetAt(id, at)
	return id
}

// resetAt arms or moves timer id on both engines.
func (r *diffRig) resetAt(id int, at Time) {
	r.wheelTimers[id].ResetAt(at)
	r.heapTimers[id].ResetAt(at)
}

// stop disarms timer id on both engines, which must agree on whether it
// was armed.
func (r *diffRig) stop(id int) {
	sw := r.wheelTimers[id].Stop()
	sh := r.heapTimers[id].Stop()
	if sw != sh {
		panic(fmt.Sprintf("Stop(%d) diverged: wheel=%v heap=%v", id, sw, sh))
	}
}

func (r *diffRig) check(t *testing.T) {
	t.Helper()
	if len(r.wheelLog) != len(r.heapLog) {
		t.Fatalf("firing counts diverged: wheel=%d heap=%d", len(r.wheelLog), len(r.heapLog))
	}
	for i := range r.wheelLog {
		if r.wheelLog[i] != r.heapLog[i] {
			t.Fatalf("firing %d diverged: wheel=%+v heap=%+v", i, r.wheelLog[i], r.heapLog[i])
		}
	}
	if r.wheel.Now() != r.heap.Now() {
		t.Fatalf("clocks diverged: wheel=%v heap=%v", r.wheel.Now(), r.heap.Now())
	}
	if r.wheel.Pending() != r.heap.Pending() {
		t.Fatalf("pending diverged: wheel=%d heap=%d", r.wheel.Pending(), r.heap.Pending())
	}
	if r.wheel.Fired() != r.heap.Fired() {
		t.Fatalf("fired diverged: wheel=%d heap=%d", r.wheel.Fired(), r.heap.Fired())
	}
	wt, wok := r.wheel.PeekNext()
	ht, hok := r.heap.PeekNext()
	if wok != hok || (wok && wt != ht) {
		t.Fatalf("PeekNext diverged: wheel=(%v,%v) heap=(%v,%v)", wt, wok, ht, hok)
	}
}

// TestDifferentialRandomWorkload exercises randomized arm/move/stop timer
// mixes across several seeds, with delays spanning sub-tick jitter to
// multi-level wheel distances, and random StepUntil-style Run barriers.
func TestDifferentialRandomWorkload(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rig := newDiffRig()
			rng := NewRNG(seed).Stream("differential")
			live := []int{}

			// Delays chosen to cross every wheel level: same-tick (0),
			// sub-tick (<65.5µs), level-0 (<4.2ms), level-1 (<268ms),
			// level-2+ (seconds…minutes), and level 6 (2^53 ns).
			randomDelay := func() Time {
				switch rng.Intn(10) {
				case 0:
					return 0
				case 1, 2:
					return Time(rng.Intn(1 << tickBits))
				case 3, 4:
					return Time(rng.Intn(1 << (tickBits + levelBits)))
				case 5, 6:
					return Time(rng.Intn(1 << (tickBits + 2*levelBits)))
				case 7:
					return Time(rng.Intn(int(10 * time.Second)))
				case 8:
					return Time(rng.Intn(int(10 * time.Minute)))
				default:
					// Level 6, past the 52-day reach of levels 0-5.
					return Time(1)<<53 + Time(rng.Intn(1<<30))
				}
			}

			for round := 0; round < 40; round++ {
				for i := 0; i < 50; i++ {
					switch k := rng.Intn(8); {
					case k < 2 && len(live) > 0:
						k := rng.Intn(len(live))
						rig.stop(live[k])
						live = append(live[:k], live[k+1:]...)
					case k == 2 && len(live) > 0:
						// Move a timer, armed or fired, in place.
						rig.resetAt(live[rng.Intn(len(live))], rig.wheel.Now()+randomDelay())
					default:
						at := rig.wheel.Now() + randomDelay()
						live = append(live, rig.scheduleAt(at))
					}
				}
				// Random barrier: run both engines to the same horizon,
				// like Scenario.StepUntil quanta.
				until := rig.wheel.Now() + Time(rng.Intn(int(2*time.Second)))
				rig.wheel.Run(until)
				rig.heap.Run(until)
				rig.check(t)
				// Drop fired ids from the live set (a fired timer is safe to
				// stop; both must agree it is a no-op).
				if len(live) > 200 {
					kept := live[:0]
					for _, id := range live {
						if !rig.wheelTimers[id].Armed() && rng.Intn(2) == 0 {
							rig.stop(id) // fired: must be a no-op on both
							continue
						}
						kept = append(kept, id)
					}
					live = kept
				}
			}
			// Drain everything, including the level-6 stragglers.
			rig.wheel.RunAll()
			rig.heap.RunAll()
			rig.check(t)
			if rig.wheel.Pending() != 0 {
				t.Fatalf("wheel did not drain: %d pending", rig.wheel.Pending())
			}
		})
	}
}

// TestDifferentialSameTickTies pins the tie-breaking contract: events
// scheduled for the same instant — and for distinct instants within one
// wheel tick — fire in scheduling order on both engines, including events
// scheduled from inside callbacks at the current time.
func TestDifferentialSameTickTies(t *testing.T) {
	rig := newDiffRig()
	base := Time(3 * time.Millisecond)
	// Interleave: same instant, same tick (different ns), reverse order.
	for i := 0; i < 10; i++ {
		rig.scheduleAt(base)
		rig.scheduleAt(base + Time(i%3)) // same tick, jittered ns
		rig.scheduleAt(base - Time(i))   // earlier ns, later schedule
	}
	// Self-rescheduling callback at the current instant.
	var wn, hn int
	rig.wheel.ScheduleAt(base, func() {
		if wn < 3 {
			wn++
			rig.wheel.ScheduleAt(rig.wheel.Now(), func() {
				rig.wheelLog = append(rig.wheelLog, firing{rig.wheel.Now(), 1000 + wn})
			})
		}
	})
	rig.heap.ScheduleAt(base, func() {
		if hn < 3 {
			hn++
			rig.heap.ScheduleAt(rig.heap.Now(), func() {
				rig.heapLog = append(rig.heapLog, firing{rig.heap.Now(), 1000 + hn})
			})
		}
	})
	rig.wheel.RunAll()
	rig.heap.RunAll()
	rig.check(t)
	if len(rig.wheelLog) != 31 {
		t.Fatalf("expected 31 firings, got %d", len(rig.wheelLog))
	}
}

// TestDifferentialStepUntilBarriers verifies Run(until) leaves both
// engines at identical clocks for barriers that land before, exactly on,
// and between event times — the serve StepUntil contract.
func TestDifferentialStepUntilBarriers(t *testing.T) {
	rig := newDiffRig()
	at := []Time{0, 1, 65535, 65536, 65537, 1 << 22, 1<<22 + 1, 3 << 30}
	for _, a := range at {
		rig.scheduleAt(a)
		rig.scheduleAt(a) // a same-time twin on each barrier point
	}
	barriers := []Time{0, 1, 2, 65535, 65536, 70000, 1 << 22, 1<<22 + 1, 1 << 25, 3 << 30, 3<<30 + 5}
	for _, b := range barriers {
		rig.wheel.Run(b)
		rig.heap.Run(b)
		rig.check(t)
	}
	if rig.wheel.Pending() != 0 {
		t.Fatalf("undrained: %d", rig.wheel.Pending())
	}
}

// TestDifferentialCancelDuringRun stops pending timers from inside
// callbacks on both engines and requires identical outcomes.
func TestDifferentialCancelDuringRun(t *testing.T) {
	rig := newDiffRig()
	victims := make([]int, 0, 8)
	for i := 0; i < 8; i++ {
		victims = append(victims, rig.scheduleAt(Time(100+i)*time.Millisecond))
	}
	// At 50ms, stop every even victim on both engines.
	rig.wheel.ScheduleAt(50*time.Millisecond, func() {
		for i := 0; i < len(victims); i += 2 {
			rig.wheelTimers[victims[i]].Stop()
		}
	})
	rig.heap.ScheduleAt(50*time.Millisecond, func() {
		for i := 0; i < len(victims); i += 2 {
			rig.heapTimers[victims[i]].Stop()
		}
	})
	rig.wheel.RunAll()
	rig.heap.RunAll()
	rig.check(t)
	if got := len(rig.wheelLog); got != 4 {
		t.Fatalf("expected 4 survivors, got %d", got)
	}
}

// TestDifferentialTimerMovesDuringRun moves timers from inside callbacks
// on both engines: earlier, later, onto an instant other events already
// hold (where the move must order the timer after them), and a timer that
// re-arms itself from its own callback.
func TestDifferentialTimerMovesDuringRun(t *testing.T) {
	rig := newDiffRig()
	var victims []int
	for i := 0; i < 8; i++ {
		victims = append(victims, rig.scheduleAt(Time(100+10*i)*time.Millisecond))
	}
	rig.scheduleAt(120 * time.Millisecond) // shares the instant victims[2] moves to
	targets := []Time{5, 300, 120, 101, 2000, 0, 170, 1 << 20}
	mover := func(side int) {
		for i, v := range victims {
			tm, now := rig.sideTimer(side, v)
			tm.ResetAt(now + targets[i]*time.Millisecond - 50*time.Millisecond)
		}
	}
	rig.resetAt(rig.newTimer(mover), 50*time.Millisecond)
	left := [2]int{3, 3}
	var self int
	self = rig.newTimer(func(side int) {
		if left[side] > 0 {
			left[side]--
			tm, now := rig.sideTimer(side, self)
			tm.ResetAt(now + 7*time.Millisecond)
		}
	})
	rig.resetAt(self, 95*time.Millisecond)
	rig.wheel.RunAll()
	rig.heap.RunAll()
	rig.check(t)
	if got, want := len(rig.wheelLog), 8+1+1+4; got != want {
		t.Fatalf("firings = %d, want %d", got, want)
	}
}

// TestDifferentialWholeTimeRange orders events and timers across the whole
// Time range against the heap reference: near times, 2^52 (past what six
// levels reach), 2^58 and 2^62 (the coarsest level), Infinity-1 and
// Infinity, each with a same-time twin. Timers move between near and far
// from outside Run; a hopper fires at each far point, moves itself to the
// next one and moves a victim alternately just ahead of the clock and to
// the far end; barriers carry the clock to Infinity-1 before the drain.
func TestDifferentialWholeTimeRange(t *testing.T) {
	rig := newDiffRig()
	points := []Time{0, 1, 1 << tickBits, 3 * time.Millisecond, time.Hour,
		1<<52 - 1, 1 << 52, 1 << 58, 1 << 62, Infinity - 1, Infinity}
	var ids []int
	for _, at := range points {
		ids = append(ids, rig.scheduleAt(at), rig.scheduleAt(at))
	}
	rig.resetAt(ids[2], Infinity)
	rig.resetAt(ids[5], 1<<62)
	rig.resetAt(ids[len(ids)-1], 2*time.Millisecond)
	rig.resetAt(ids[len(ids)-3], 5)

	victim := rig.scheduleAt(time.Minute)
	var farNext [2]bool
	var hopper int
	hopper = rig.newTimer(func(side int) {
		tm, now := rig.sideTimer(side, hopper)
		for _, p := range points {
			if p > now {
				tm.ResetAt(p)
				break
			}
		}
		v, _ := rig.sideTimer(side, victim)
		if farNext[side] {
			v.ResetAt(Infinity - 2)
		} else {
			v.ResetAt(Later(now, time.Millisecond))
		}
		farNext[side] = !farNext[side]
	})
	rig.resetAt(hopper, time.Hour)

	for _, until := range []Time{time.Second, 1 << 52, 1<<58 + 5, 1 << 62, Infinity - 2, Infinity - 1} {
		rig.wheel.Run(until)
		rig.heap.Run(until)
		rig.check(t)
	}
	rig.wheel.RunAll()
	rig.heap.RunAll()
	rig.check(t)
	// Every twin fires once, the hopper at 1h and at each of its six later
	// points, and the victim six times.
	if got, want := len(rig.wheelLog), 2*len(points)+7+6; got != want {
		t.Fatalf("firings = %d, want %d", got, want)
	}
}

// gate is the control surface shared by Ticker and refTicker.
type gate interface {
	SleepUntil(Time)
	Wake()
	Stop()
}

// refTicker is the reference semantics of a Ticker on the heap
// engine: a self-rescheduling event chain whose every link fires, and
// which invokes fn iff now >= wake.
type refTicker struct {
	e       *heapEngine
	period  Time
	fn      func()
	ev      *heapEvent
	wake    Time
	stopped bool
}

func newRefTicker(e *heapEngine, period Time, fn func()) *refTicker {
	t := &refTicker{e: e, period: period, fn: fn}
	t.arm()
	return t
}

func (t *refTicker) arm() { t.ev = t.e.ScheduleAt(t.e.Now()+t.period, t.fire) }

func (t *refTicker) fire() {
	if t.e.Now() >= t.wake {
		t.fn()
	}
	if !t.stopped {
		t.arm()
	}
}

func (t *refTicker) SleepUntil(at Time) { t.wake = at }
func (t *refTicker) Wake()              { t.wake = 0 }
func (t *refTicker) Stop() {
	t.stopped = true
	t.e.Cancel(t.ev)
}

// gateSide is one engine's half of the gated-ticker differential: both
// halves draw from identically seeded streams, so they make the same
// choices exactly as long as their callbacks run in the same order.
type gateSide struct {
	now     func() Time
	rng     *RNG
	periods []Time
	gates   []gate
	log     *[]firing
	calls   int
}

// tick is every ticker's callback: log the firing, then sleep, wake or
// stop a ticker at random. Some sleeps end exactly on one of the sleeper's
// own ticks, which must then run.
func (s *gateSide) tick(id int) {
	s.calls++
	*s.log = append(*s.log, firing{s.now(), 1_000_000 + id})
	other := s.gates[s.rng.Intn(len(s.gates))]
	switch s.rng.Intn(8) {
	case 0:
		s.gates[id].SleepUntil(s.now() + Time(s.rng.Intn(int(time.Second))))
	case 1:
		s.gates[id].SleepUntil(s.now() + Time(1+s.rng.Intn(4))*s.periods[id])
	case 2:
		other.Wake()
	case 3:
		other.SleepUntil(Infinity)
	case 4:
		if s.rng.Intn(16) == 0 {
			other.Stop()
		}
	}
}

// TestDifferentialGatedTickers drives gated tickers on the wheel and on
// the reference semantics through the same random sleeps, wakes and
// stops — from callbacks, from one-shot events and from outside Run —
// interleaved with plain events. A skipped tick must keep its time and
// sequence number, so the (at, id) traces, Fired() and Pending() match.
func TestDifferentialGatedTickers(t *testing.T) {
	periods := []Time{1 << tickBits, 3*time.Millisecond + 7, 100 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rig := newDiffRig()
			w := &gateSide{now: rig.wheel.Now, rng: NewRNG(seed).Stream("gated"), periods: periods, log: &rig.wheelLog}
			h := &gateSide{now: rig.heap.Now, rng: NewRNG(seed).Stream("gated"), periods: periods, log: &rig.heapLog}
			for i, p := range periods {
				w.gates = append(w.gates, rig.wheel.Ticker(p, func() { w.tick(i) }))
				h.gates = append(h.gates, newRefTicker(rig.heap, p, func() { h.tick(i) }))
			}
			rng := NewRNG(seed).Stream("driver")
			var wakes uint64
			for round := 0; round < 40; round++ {
				for i := 0; i < 5; i++ {
					at := rig.wheel.Now() + Time(rng.Intn(int(500*time.Millisecond)))
					rig.scheduleAt(at)
					k := rng.Intn(len(periods))
					rig.wheel.ScheduleAt(at, func() { wakes++; w.gates[k].Wake() })
					rig.heap.ScheduleAt(at, func() { h.gates[k].Wake() })
				}
				k := rng.Intn(len(periods))
				until := rig.wheel.Now() + Time(rng.Intn(int(2*time.Second)))
				w.gates[k].SleepUntil(until)
				h.gates[k].SleepUntil(until)
				rig.wheel.Run(until)
				rig.heap.Run(until)
				rig.check(t)
			}
			if w.calls != h.calls {
				t.Fatalf("callbacks diverged: wheel=%d reference=%d", w.calls, h.calls)
			}
			var plain uint64
			for _, f := range rig.wheelLog {
				if f.id < 1_000_000 {
					plain++
				}
			}
			// Fired counts plain events, wake events and every tick; the
			// ticks that ran a callback must be a strict, non-empty
			// subset, or the gate was never exercised.
			tickerFirings := rig.wheel.Fired() - plain - wakes
			if w.calls == 0 || uint64(w.calls) >= tickerFirings {
				t.Fatalf("gate not exercised: %d callbacks over %d ticker firings", w.calls, tickerFirings)
			}
		})
	}
}

// lanePeriods spans every lane regime: sub-tick (several ticks per wheel
// tick), one tick, level-0 and level-1 distances, a repeat (two tickers
// share a lane), and seconds to minutes.
var lanePeriods = []Time{
	7 * time.Microsecond, 40 * time.Microsecond, 1 << tickBits, 3*time.Millisecond + 7,
	100 * time.Millisecond, 100 * time.Millisecond, time.Second, 2*time.Minute + 3,
}

// Lane-differential population bounds: tickers alive at once, tickers the
// callbacks may start per seed, and a log size past which every tick stops
// its ticker. Ticks die at a fixed rate, so the event count stays small.
const (
	maxLiveTickers = 40
	tickerBudget   = 400
	maxLaneLog     = 1 << 20
)

// laneSide is one engine's half of the lane differential. Like gateSide,
// both halves draw from identically seeded streams, so they start, stop,
// sleep and schedule alike exactly as long as their callbacks run in the
// same order.
type laneSide struct {
	now     func() Time
	peek    func() (Time, bool)
	pending func() int
	start   func(period Time, fn func()) gate
	after   func(d Time, fn func())
	rng     *RNG
	log     *[]firing

	gates   []gate
	periods []Time
	alive   []bool
	live    int
	// quiet turns off one-shots, so only lanes hold events.
	quiet    bool
	oneShots int
	// Coverage counters, read from the wheel side only.
	subTick, minutes, selfStops int
}

func (s *laneSide) startTicker(period Time) {
	id := len(s.gates)
	s.periods = append(s.periods, period)
	s.alive = append(s.alive, true)
	s.live++
	s.gates = append(s.gates, s.start(period, func() { s.tick(id) }))
}

func (s *laneSide) stop(id int) {
	if s.alive[id] {
		s.alive[id] = false
		s.live--
	}
	s.gates[id].Stop()
}

func (s *laneSide) canStart() bool { return s.live < maxLiveTickers && len(s.gates) < tickerBudget }

func (s *laneSide) randomPeriod() Time { return lanePeriods[s.rng.Intn(len(lanePeriods))] }

// tick is every ticker's callback. A tick stops its own ticker one time in
// sixteen, and a sub-tick ticker's one time in eight more, so no ticker
// floods a long stretch.
func (s *laneSide) tick(id int) {
	*s.log = append(*s.log, firing{s.now(), 2_000_000 + id})
	p := s.periods[id]
	if p < 1<<tickBits {
		s.subTick++
	}
	if p >= time.Minute {
		s.minutes++
	}
	if len(*s.log) > maxLaneLog || s.rng.Intn(16) == 0 || (p < 1<<tickBits && s.rng.Intn(8) == 0) {
		s.stop(id) // inside its own callback
		s.selfStops++
		return
	}
	switch s.rng.Intn(24) {
	case 0:
		if s.canStart() {
			s.startTicker(s.randomPeriod())
		}
	case 1:
		// Several tickers of one period, started at the same instant.
		p := s.randomPeriod()
		for k := 0; k < 3 && s.canStart(); k++ {
			s.startTicker(p)
		}
	case 2:
		if !s.quiet {
			s.oneShot(Time(s.rng.Intn(int(300 * time.Millisecond))))
		}
	case 3:
		s.stop(s.rng.Intn(len(s.gates)))
	case 4:
		s.gates[s.rng.Intn(len(s.gates))].SleepUntil(s.now() + Time(s.rng.Intn(int(time.Second))))
	case 5:
		// The queue as seen from inside a callback, where the running
		// ticker is not pending.
		at, ok := s.peek()
		if !ok {
			at = -1
		}
		*s.log = append(*s.log, firing{at, -1}, firing{Time(s.pending()), -2})
	}
}

// oneShot schedules a plain event that may start a ticker when it fires.
func (s *laneSide) oneShot(d Time) {
	id := s.oneShots
	s.oneShots++
	s.after(d, func() {
		*s.log = append(*s.log, firing{s.now(), 3_000_000 + id})
		if s.rng.Intn(3) == 0 {
			s.startTicker(s.randomPeriod())
		}
	})
}

// wheelIdle reports whether the wheel and batch hold nothing, so that
// every pending event sits on a lane.
func wheelIdle(e *Engine) bool {
	return len(e.batch) == 0 && e.occ == [numLevels]uint64{}
}

// TestDifferentialLanes drives tickers on the lanes and on the reference
// semantics through the same random starts (from outside Run, from
// callbacks, from one-shot events, several of one period at once), stops
// (including from a ticker's own callback) and sleeps, over periods from
// sub-tick to minutes. Busy rounds mix in plain events; quiet stretches
// leave the wheel empty for minutes while only lanes fire, then schedule
// near-future events, which must land in order behind the caught-up
// cursor. The traces, clocks, Fired, Pending and PeekNext must agree at
// every barrier.
func TestDifferentialLanes(t *testing.T) {
	var subTick, minutes, selfStops, idleStretches int
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rig := newDiffRig()
			w := &laneSide{now: rig.wheel.Now, peek: rig.wheel.PeekNext, pending: rig.wheel.Pending,
				start: func(p Time, fn func()) gate { return rig.wheel.Ticker(p, fn) },
				after: func(d Time, fn func()) { rig.wheel.Schedule(d, fn) },
				rng:   NewRNG(seed).Stream("lanes"), log: &rig.wheelLog}
			h := &laneSide{now: rig.heap.Now, peek: rig.heap.PeekNext, pending: rig.heap.Pending,
				start: func(p Time, fn func()) gate { return newRefTicker(rig.heap, p, fn) },
				after: func(d Time, fn func()) { rig.heap.Schedule(d, fn) },
				rng:   NewRNG(seed).Stream("lanes"), log: &rig.heapLog}
			both := func(f func(s *laneSide)) { f(w); f(h) }
			rng := NewRNG(seed).Stream("driver")
			for round := 0; round < 60; round++ {
				quiet := round%10 == 9
				both(func(s *laneSide) { s.quiet = quiet })
				// Tickers started from outside Run; a quiet stretch also
				// gets a minute-period one, which likely outlives it.
				p := lanePeriods[rng.Intn(len(lanePeriods))]
				for k := rng.Intn(3); k >= 0; k-- {
					both(func(s *laneSide) { s.startTicker(p) })
				}
				if quiet {
					both(func(s *laneSide) { s.startTicker(lanePeriods[len(lanePeriods)-1]) })
				}
				span := Time(rng.Intn(int(2 * time.Second)))
				if quiet {
					span = Time(1+rng.Intn(5)) * time.Minute
				} else {
					for i := 0; i < 5; i++ {
						at := rig.wheel.Now() + Time(rng.Intn(int(500*time.Millisecond)))
						rig.scheduleAt(at)
					}
				}
				until := rig.wheel.Now() + span
				rig.wheel.Run(until)
				rig.heap.Run(until)
				rig.check(t)
				if quiet && rig.wheel.Pending() > 0 && wheelIdle(rig.wheel) {
					idleStretches++
				}
				// Near-future plain events right after a stretch.
				for i := 0; i < 3; i++ {
					rig.scheduleAt(rig.wheel.Now() + Time(rng.Intn(int(5*time.Millisecond))))
				}
			}
			for id := range w.gates {
				both(func(s *laneSide) { s.stop(id) })
			}
			rig.check(t)
			rig.wheel.RunAll()
			rig.heap.RunAll()
			rig.check(t)
			if n := rig.wheel.Pending(); n != 0 {
				t.Fatalf("%d events pending after every ticker stopped", n)
			}
			subTick += w.subTick
			minutes += w.minutes
			selfStops += w.selfStops
		})
	}
	t.Logf("%d sub-tick ticks, %d minute-period ticks, %d self-stops, %d idle-wheel stretches",
		subTick, minutes, selfStops, idleStretches)
	if subTick == 0 || minutes == 0 || selfStops == 0 || idleStretches == 0 {
		t.Fatalf("coverage: %d sub-tick ticks, %d minute-period ticks, %d self-stops, %d idle-wheel stretches",
			subTick, minutes, selfStops, idleStretches)
	}
}

// TestTickerZeroAllocSteadyState pins the pooling contract: once warm, a
// ticker re-arms and fires without allocating.
func TestTickerZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Ticker(time.Millisecond, func() { n++ })
	e.Run(10 * time.Millisecond) // warm up pool + batch
	allocs := testing.AllocsPerRun(100, func() {
		e.Run(e.Now() + 50*time.Millisecond)
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state ticker allocates: %.1f allocs/run", allocs)
	}
	if n == 0 {
		t.Fatal("ticker never fired")
	}
}

// TestScheduleCallZeroAlloc pins that fire-and-forget Runnable scheduling
// does not allocate once the node pool is warm.
func TestScheduleCallZeroAlloc(t *testing.T) {
	e := NewEngine()
	j := &countJob{}
	// Warm the pool.
	for i := 0; i < 300; i++ {
		e.ScheduleCall(Time(i)*time.Microsecond, j)
	}
	e.RunAll()
	allocs := testing.AllocsPerRun(100, func() {
		e.ScheduleCall(time.Microsecond, j)
		e.RunAll()
	})
	if allocs > 0.5 {
		t.Fatalf("ScheduleCall allocates in steady state: %.1f allocs/run", allocs)
	}
	if j.n == 0 {
		t.Fatal("job never ran")
	}
}

type countJob struct{ n int }

func (c *countJob) RunEvent() { c.n++ }
