package sim

import (
	"container/heap"
	"fmt"
)

// heapEngine is the original container/heap event scheduler, kept (unexported)
// as the reference implementation for the timer-wheel differential tests: both
// engines must fire identical (time, order) sequences on any workload. It is
// not used by production code.
type heapEngine struct {
	now   Time
	seq   uint64
	queue heapEventQueue
	fired uint64
}

// heapEvent is the reference engine's event handle: one heap entry per event.
type heapEvent struct {
	at    Time
	seq   uint64
	fn    func()
	index int // heap index, -1 once fired or cancelled
}

type heapEventQueue []*heapEvent

func (q heapEventQueue) Len() int { return len(q) }
func (q heapEventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q heapEventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *heapEventQueue) Push(x any) {
	e := x.(*heapEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *heapEventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

func newHeapEngine() *heapEngine { return &heapEngine{} }

func (e *heapEngine) Now() Time     { return e.now }
func (e *heapEngine) Fired() uint64 { return e.fired }
func (e *heapEngine) Pending() int  { return len(e.queue) }
func (e *heapEngine) Len() int      { return len(e.queue) }

func (e *heapEngine) PeekNext() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

func (e *heapEngine) Schedule(delay Time, fn func()) *heapEvent {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

func (e *heapEngine) ScheduleAt(at Time, fn func()) *heapEvent {
	if fn == nil {
		panic("sim: ScheduleAt with nil callback")
	}
	if at < e.now {
		at = e.now
	}
	ev := &heapEvent{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

func (e *heapEngine) Cancel(ev *heapEvent) bool {
	if ev == nil || ev.index < 0 {
		return false
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -1
	return true
}

// heapTimer is the reference semantics of a Timer: a re-arm cancels the
// pending event and schedules a fresh one, which takes the next sequence
// number, and Stop is a cancel.
type heapTimer struct {
	e  *heapEngine
	fn func()
	ev *heapEvent
}

func newHeapTimer(e *heapEngine, fn func()) *heapTimer { return &heapTimer{e: e, fn: fn} }

func (t *heapTimer) ResetAt(at Time) {
	t.e.Cancel(t.ev)
	t.ev = t.e.ScheduleAt(at, t.fn)
}

func (t *heapTimer) Reset(delay Time) {
	if delay < 0 {
		delay = 0
	}
	t.ResetAt(t.e.now + delay)
}

func (t *heapTimer) Stop() bool  { return t.e.Cancel(t.ev) }
func (t *heapTimer) Armed() bool { return t.ev != nil && t.ev.index >= 0 }

func (e *heapEngine) Run(until Time) {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.at > until {
			break
		}
		heap.Pop(&e.queue)
		e.now = next.at
		e.fired++
		fn := next.fn
		next.fn = nil
		fn()
	}
	if e.now < until {
		e.now = until
	}
}

func (e *heapEngine) RunAll() {
	const backstop = 1 << 34
	for len(e.queue) > 0 {
		next := heap.Pop(&e.queue).(*heapEvent)
		e.now = next.at
		e.fired++
		fn := next.fn
		next.fn = nil
		fn()
		if e.fired > backstop {
			panic(fmt.Sprintf("sim: runaway event loop: %d events fired", e.fired))
		}
	}
}
