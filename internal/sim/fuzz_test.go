package sim

import (
	"testing"
	"time"
)

// Fuzz-program bounds, which keep every execution to milliseconds: the
// operations read from one input, the ticks one Run may fire (its horizon
// halves until the live tickers, and the tickers pending one-shots may
// start, fit), the shortest period a one-shot starts, the firings past
// which the rest of the program is dropped, and the clock past which it is
// dropped too (so no time overflows).
const (
	fuzzMaxOps        = 64
	fuzzTicksPerRun   = 1 << 8
	fuzzStarterPeriod = time.Millisecond
	fuzzMaxFirings    = 1 << 12
	fuzzMaxNow        = Time(1) << 60
)

// fuzzSpan decodes a duration: (b+1) << shift, with the shift picked by
// the low three bits of a, from sub-tick through every wheel level, the
// coarsest (2^58 ns) included.
func fuzzSpan(a, b byte) Time {
	shifts := [8]uint{0, 4, 10, tickBits, 22, 28, 34, 50}
	return Time(int64(b)+1) << shifts[a&7]
}

// fuzzRig replays one program on the Engine and on the heap reference.
// Each side keeps its own ticker list, since one-shots start tickers from
// inside each engine's run; index k names the same ticker on both sides.
type fuzzRig struct {
	*diffRig
	wt       []*Ticker
	ht       []*refTicker
	periods  []Time
	alive    []bool
	starters int // one-shot starters scheduled and not yet fired
	// draining stops one-shots from starting tickers, so RunAll ends.
	draining bool
	firings  int // firings checked and dropped from the logs
}

// barrier compares both engines, then drops the checked traces.
func (r *fuzzRig) barrier(t *testing.T) {
	t.Helper()
	r.check(t)
	if len(r.wt) != len(r.ht) {
		t.Fatalf("tickers started diverged: wheel=%d heap=%d", len(r.wt), len(r.ht))
	}
	r.firings += len(r.wheelLog)
	r.wheelLog, r.heapLog = r.wheelLog[:0], r.heapLog[:0]
}

func (r *fuzzRig) startWheel(period Time) {
	id := len(r.wt)
	r.periods = append(r.periods, period)
	r.alive = append(r.alive, true)
	r.wt = append(r.wt, r.wheel.Ticker(period, func() {
		r.wheelLog = append(r.wheelLog, firing{r.wheel.Now(), 1_000_000 + id})
	}))
}

func (r *fuzzRig) startHeap(period Time) {
	id := len(r.ht)
	r.ht = append(r.ht, newRefTicker(r.heap, period, func() {
		r.heapLog = append(r.heapLog, firing{r.heap.Now(), 1_000_000 + id})
	}))
}

// scheduleStarter arms a timer on both engines that logs and, on its
// first firing only, starts a ticker on its own engine; a re-armed
// starter fires again but starts nothing, so the tick budget holds.
func (r *fuzzRig) scheduleStarter(at, period Time) {
	r.starters++
	var fired [2]bool
	id := r.newTimer(func(side int) {
		if fired[side] {
			return
		}
		fired[side] = true
		if side == 0 {
			r.starters--
		}
		if r.draining {
			return
		}
		if side == 0 {
			r.startWheel(period)
		} else {
			r.startHeap(period)
		}
	})
	r.resetAt(id, at)
}

// armActor arms a timer at at on both engines whose first firing moves
// timer victim to d after it (act 0) or stops it (act 1), on its own
// engine. Acting once bounds the firings two actors aimed at each other
// can cause.
func (r *fuzzRig) armActor(at Time, victim, act int, d Time) {
	var acted [2]bool
	id := r.newTimer(func(side int) {
		if acted[side] {
			return
		}
		acted[side] = true
		tm, now := r.sideTimer(side, victim)
		if act == 0 {
			tm.ResetAt(now + d)
		} else {
			tm.Stop()
		}
	})
	r.resetAt(id, at)
}

// armRepeater arms a timer at at on both engines that re-arms itself from
// its own callback, d later, n times.
func (r *fuzzRig) armRepeater(at Time, n int, d Time) {
	left := [2]int{n, n}
	var id int
	id = r.newTimer(func(side int) {
		if left[side] > 0 {
			left[side]--
			tm, now := r.sideTimer(side, id)
			tm.ResetAt(now + d)
		}
	})
	r.resetAt(id, at)
}

// runSpan shrinks a Run horizon until the live tickers, and one ticker per
// pending starter, fire at most fuzzTicksPerRun ticks in it.
func (r *fuzzRig) runSpan(span Time) Time {
	for span > 0 && r.ticksIn(span) > fuzzTicksPerRun {
		span /= 2
	}
	return span
}

// ticksIn bounds the ticks a span holds, stopping once past the budget so
// the sum cannot overflow.
func (r *fuzzRig) ticksIn(span Time) Time {
	ticks := span / fuzzStarterPeriod * Time(r.starters)
	for i, p := range r.periods {
		if ticks > fuzzTicksPerRun {
			break
		}
		if r.alive[i] {
			ticks += span / p
		}
	}
	return ticks
}

// FuzzEngine decodes its input, three bytes per operation, into a program
// of timer arm, stop and move steps (from outside Run, and from callbacks:
// an actor's, or a repeater's own), ticker start (directly or from a
// one-shot timer), sleep, wake, stop and Run(until) steps. It replays the
// program on the Engine and on the heap reference (heapTimer for timers,
// refTicker for tickers) and requires identical traces, clocks, Fired,
// Pending and PeekNext at every Run barrier and after a final drain. An
// op byte below 8 decodes alike under %12 and %8, so corpus entries
// written for the eight original ops keep their meaning.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{2, 4, 3, 2, 4, 3, 0, 3, 9, 6, 5, 2, 5, 0, 0, 6, 5, 40})
	f.Add([]byte{0, 7, 1, 0, 0, 0, 1, 0, 0, 6, 3, 200, 2, 0, 0, 6, 2, 9})
	f.Add([]byte{2, 3, 100, 3, 0, 5, 6, 4, 50, 4, 0, 0, 6, 5, 10, 5, 0, 0, 6, 5, 10})
	f.Add([]byte{7, 4, 20, 2, 5, 0, 6, 4, 60, 3, 1, 200, 6, 5, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := &fuzzRig{diffRig: newDiffRig()}
		prog = prog[:min(len(prog), 3*fuzzMaxOps)]
		for ; len(prog) >= 3 && r.firings < fuzzMaxFirings && r.wheel.Now() < fuzzMaxNow; prog = prog[3:] {
			op, a, b := prog[0]%12, prog[1], prog[2]
			k := 0
			if len(r.wt) > 0 {
				k = int(a) % len(r.wt)
			}
			switch {
			case op == 0: // arm a new timer
				r.scheduleAt(r.wheel.Now() + fuzzSpan(a, b))
			case op == 1: // stop a timer, armed, fired or stopped
				if r.nextID > 0 {
					r.stop((int(a)<<8 | int(b)) % r.nextID)
				}
			case op == 8: // move a timer, armed, fired or stopped
				if r.nextID > 0 {
					r.resetAt(int(a)%r.nextID, r.wheel.Now()+fuzzSpan(b, a))
				}
			case op == 9 || op == 10: // arm an actor that moves or stops a timer
				if r.nextID > 0 {
					r.armActor(r.wheel.Now()+fuzzSpan(a, b), int(b)%r.nextID, int(op-9), fuzzSpan(b, a))
				}
			case op == 11: // arm a timer that re-arms itself
				r.armRepeater(r.wheel.Now()+fuzzSpan(a, b), int(a%4)+1, fuzzSpan(b>>3, b))
			case op == 2: // start a ticker from outside Run
				p := fuzzSpan(a, b)
				r.startWheel(p)
				r.startHeap(p)
			case op == 7: // schedule a one-shot that starts a ticker
				r.scheduleStarter(r.wheel.Now()+fuzzSpan(a, b), fuzzStarterPeriod+fuzzSpan(b, a))
			case op == 6: // run to a barrier
				until := r.wheel.Now() + r.runSpan(fuzzSpan(a, b))
				r.wheel.Run(until)
				r.heap.Run(until)
				r.barrier(t)
			case len(r.wt) == 0:
			case op == 3: // sleep a ticker
				until := r.wheel.Now() + fuzzSpan(a>>3, b)
				r.wt[k].SleepUntil(until)
				r.ht[k].SleepUntil(until)
			case op == 4: // wake a ticker
				r.wt[k].Wake()
				r.ht[k].Wake()
			case op == 5: // stop a ticker
				r.wt[k].Stop()
				r.ht[k].Stop()
				r.alive[k] = false
			}
		}
		r.draining = true
		for k := range r.wt {
			r.wt[k].Stop()
			r.ht[k].Stop()
		}
		r.barrier(t)
		r.wheel.RunAll()
		r.heap.RunAll()
		r.barrier(t)
		if n := r.wheel.Pending(); n != 0 {
			t.Fatalf("%d events pending after the drain", n)
		}
	})
}
