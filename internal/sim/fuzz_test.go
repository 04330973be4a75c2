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
// the low three bits of a, from sub-tick through every wheel level to
// past the wheel horizon.
func fuzzSpan(a, b byte) Time {
	shifts := [8]uint{0, 4, 10, tickBits, 22, 28, 34, 50}
	return Time(int64(b)+1) << shifts[a&7]
}

// fuzzRig replays one program on the Engine and on the heap reference.
// Each side keeps its own ticker list, since one-shots start tickers from
// inside each engine's run; index k names the same ticker on both sides.
type fuzzRig struct {
	*diffRig
	wt       []*GatedTicker
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
	r.wt = append(r.wt, r.wheel.GatedTicker(period, func() {
		r.wheelLog = append(r.wheelLog, firing{r.wheel.Now(), 1_000_000 + id})
	}))
}

func (r *fuzzRig) startHeap(period Time) {
	id := len(r.ht)
	r.ht = append(r.ht, newRefTicker(r.heap, period, func() {
		r.heapLog = append(r.heapLog, firing{r.heap.Now(), 1_000_000 + id})
	}))
}

// scheduleStarter schedules a one-shot on both engines that logs and then
// starts a ticker on its own engine.
func (r *fuzzRig) scheduleStarter(at, period Time) {
	id := r.nextID
	r.nextID++
	r.starters++
	r.wheelEvs[id] = r.wheel.ScheduleAt(at, func() {
		r.wheelLog = append(r.wheelLog, firing{r.wheel.Now(), id})
		r.starters--
		if !r.draining {
			r.startWheel(period)
		}
	})
	r.heapEvs[id] = r.heap.ScheduleAt(at, func() {
		r.heapLog = append(r.heapLog, firing{r.heap.Now(), id})
		if !r.draining {
			r.startHeap(period)
		}
	})
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
// of schedule, cancel, ticker start (directly or from a one-shot), sleep,
// wake, stop and Run(until) steps. It replays the program on the Engine
// and on the heap reference (refTicker for tickers) and requires identical
// traces, clocks, Fired, Pending and PeekNext at every Run barrier and
// after a final drain.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{2, 4, 3, 2, 4, 3, 0, 3, 9, 6, 5, 2, 5, 0, 0, 6, 5, 40})
	f.Add([]byte{0, 7, 1, 0, 0, 0, 1, 0, 0, 6, 3, 200, 2, 0, 0, 6, 2, 9})
	f.Add([]byte{2, 3, 100, 3, 0, 5, 6, 4, 50, 4, 0, 0, 6, 5, 10, 5, 0, 0, 6, 5, 10})
	f.Add([]byte{7, 4, 20, 2, 5, 0, 6, 4, 60, 3, 1, 200, 6, 5, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := &fuzzRig{diffRig: newDiffRig()}
		prog = prog[:min(len(prog), 3*fuzzMaxOps)]
		for ; len(prog) >= 3 && r.firings < fuzzMaxFirings && r.wheel.Now() < fuzzMaxNow; prog = prog[3:] {
			op, a, b := prog[0]%8, prog[1], prog[2]
			k := 0
			if len(r.wt) > 0 {
				k = int(a) % len(r.wt)
			}
			switch {
			case op == 0: // schedule a plain event
				r.scheduleAt(r.wheel.Now() + fuzzSpan(a, b))
			case op == 1: // cancel an event, fired or not
				if r.nextID > 0 {
					r.cancel((int(a)<<8 | int(b)) % r.nextID)
				}
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
