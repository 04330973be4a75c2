// Package sim provides the discrete-event simulation kernel used by every
// other substrate in this repository: a virtual clock, a cancellable event
// scheduler with deterministic ordering, and seeded random-number streams.
//
// All simulated components (radios, APs, DHCP servers, TCP endpoints,
// drivers) schedule callbacks on a shared *Engine. Events at equal virtual
// times fire in scheduling order, so a run is a pure function of its seed
// and parameters.
//
// The scheduler is a hierarchical timer wheel over pooled event nodes: far
// events cost O(1) to insert and sit in coarse slots until the clock nears
// them; due events drain into a small (at, seq)-ordered batch heap that
// reproduces the exact total order of a global binary heap. City-scale runs
// schedule tens of millions of events, so nodes are recycled through a
// free list and fire-and-forget callers can schedule a Runnable without
// allocating a handle or a closure.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is an absolute virtual time measured from the start of the run.
type Time = time.Duration

// Infinity is a time later than any event a run can schedule.
const Infinity Time = math.MaxInt64

// Runnable is a pooled alternative to a func() callback: hot paths embed a
// job struct and implement RunEvent on it, so scheduling captures one
// pointer instead of allocating a closure (and no *Event handle is created).
type Runnable interface {
	RunEvent()
}

// Wheel geometry. Ticks are 2^tickBits ns (~65.5 µs): finer than any MAC
// timing constant in the stack, so same-tick collisions are resolved by the
// batch heap, and coarse enough that a 6-level * 64-slot wheel covers
// 2^(16+36) ns ≈ 52 days before the overflow list is consulted.
const (
	tickBits   = 16
	levelBits  = 6
	wheelSlots = 1 << levelBits // 64
	slotMask   = wheelSlots - 1
	numLevels  = 6
)

// node placement markers (node.level); values >= 0 are wheel levels.
const (
	levelBatch    = -1 // in the due-batch heap; node.index is the heap slot
	levelOverflow = -2 // on the overflow list (beyond the wheel horizon)
	levelFree     = -3 // on the free list
)

// node is a pooled scheduler entry. It lives on exactly one of: a wheel
// slot's doubly-linked list, the overflow list, the batch heap, or the free
// list. Nodes are recycled after firing or cancellation; the public *Event
// handle is detached first, so stale handles can never reach a recycled node.
type node struct {
	at    Time
	seq   uint64
	fn    func()
	r     Runnable
	ev    *Event // back-pointer to the handle, nil for fire-and-forget
	next  *node
	prev  *node
	level int32 // wheel level, or a placement marker above
	slot  int32 // wheel slot index within level
	index int32 // batch heap index while level == levelBatch
}

// Event is a handle to a scheduled callback. It may be cancelled until it
// has fired. The handle is detached from its pooled node when the event
// fires or is cancelled, so holding one past that point is always safe.
type Event struct {
	at     Time
	n      *node
	cancel bool
}

// At returns the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { return e.cancel }

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; simulations are deterministic and single-goroutine by
// design.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	stopped bool
	pending int

	// currentTick is the wheel cursor: every node stored in a wheel level
	// has tick(at) > currentTick, and every node in the batch has
	// tick(at) <= currentTick. The cursor only moves forward, and may run
	// ahead of now (events scheduled behind it simply join the batch,
	// where the heap restores (at, seq) order).
	currentTick uint64
	levels      [numLevels][wheelSlots]*node
	occ         [numLevels]uint64 // per-level slot occupancy bitmask

	batch    []*node // min-heap on (at, seq): the only totally ordered region
	overflow *node   // events beyond the wheel horizon, unordered

	free      *node
	freeChunk []node // bulk allocation backing the free list
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still scheduled.
func (e *Engine) Pending() int { return e.pending }

// Len returns the number of events still scheduled — an alias for Pending
// under the conventional container name, for callers (spider-serve) that
// read queue depth as a quiescence signal.
func (e *Engine) Len() int { return e.pending }

// PeekNext returns the virtual time of the earliest scheduled event
// without firing it, and false when the queue is empty. Cancelled events
// leave the queue immediately, so the reported time is always live. The
// serve loop uses it to find quiescent barrier points: a checkpoint taken
// at a time t with PeekNext() > t can never split a batch of equal-time
// events.
func (e *Engine) PeekNext() (Time, bool) {
	if len(e.batch) == 0 && !e.advance() {
		return 0, false
	}
	return e.batch[0].at, true
}

// Schedule runs fn after delay. A negative delay is treated as zero: the
// event fires at the current time, after events already scheduled for that
// time.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to now.
func (e *Engine) ScheduleAt(at Time, fn func()) *Event {
	if fn == nil {
		panic("sim: ScheduleAt with nil callback")
	}
	n := e.scheduleNode(at, fn, nil)
	ev := &Event{at: n.at, n: n}
	n.ev = ev
	return ev
}

// ScheduleCall runs r.RunEvent() after delay without allocating a closure
// or an *Event handle. A negative delay is treated as zero. Use for
// fire-and-forget hot-path work (frame delivery, backhaul completions).
func (e *Engine) ScheduleCall(delay Time, r Runnable) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleCallAt(e.now+delay, r)
}

// ScheduleCallAt runs r.RunEvent() at absolute virtual time at (clamped to
// now) without allocating a closure or an *Event handle.
func (e *Engine) ScheduleCallAt(at Time, r Runnable) {
	if r == nil {
		panic("sim: ScheduleCallAt with nil Runnable")
	}
	e.scheduleNode(at, nil, r)
}

func (e *Engine) scheduleNode(at Time, fn func(), r Runnable) *node {
	if at < e.now {
		at = e.now
	}
	n := e.allocNode()
	n.at = at
	n.seq = e.seq
	n.fn = fn
	n.r = r
	e.seq++
	e.pending++
	e.place(n)
	return n
}

// place inserts a node into the region its tick calls for: the batch heap
// when it is not ahead of the cursor, a wheel slot within the horizon, or
// the overflow list beyond it.
func (e *Engine) place(n *node) {
	tick := uint64(n.at) >> tickBits
	if tick <= e.currentTick {
		e.batchPush(n)
		return
	}
	level := (bits.Len64(tick^e.currentTick) - 1) / levelBits
	if level >= numLevels {
		n.level = levelOverflow
		n.slot = 0
		n.prev = nil
		n.next = e.overflow
		if e.overflow != nil {
			e.overflow.prev = n
		}
		e.overflow = n
		return
	}
	slot := int32((tick >> (uint(level) * levelBits)) & slotMask)
	n.level = int32(level)
	n.slot = slot
	n.prev = nil
	n.next = e.levels[level][slot]
	if n.next != nil {
		n.next.prev = n
	}
	e.levels[level][slot] = n
	e.occ[level] |= 1 << uint(slot)
}

// unlink removes a node from whichever region holds it.
func (e *Engine) unlink(n *node) {
	switch n.level {
	case levelBatch:
		e.batchRemove(int(n.index))
	case levelOverflow:
		if n.prev != nil {
			n.prev.next = n.next
		} else {
			e.overflow = n.next
		}
		if n.next != nil {
			n.next.prev = n.prev
		}
	default:
		if n.prev != nil {
			n.prev.next = n.next
		} else {
			e.levels[n.level][n.slot] = n.next
			if n.next == nil {
				e.occ[n.level] &^= 1 << uint(n.slot)
			}
		}
		if n.next != nil {
			n.next.prev = n.prev
		}
	}
	n.next, n.prev = nil, nil
}

// advance moves the wheel cursor to the next occupied tick and drains that
// tick's events into the batch heap. It returns false when nothing is
// scheduled anywhere. It never touches the clock (now), so PeekNext can
// call it freely.
func (e *Engine) advance() bool {
	for {
		if len(e.batch) > 0 {
			return true
		}
		// Nearest occupied level-0 slot in the current window. Slots at
		// or below the cursor's own index are empty by construction
		// (due events go to the batch), so masking from the cursor up
		// never resurrects a past tick.
		c0 := e.currentTick & slotMask
		if m := e.occ[0] &^ ((1 << c0) - 1); m != 0 {
			s := uint64(bits.TrailingZeros64(m))
			e.currentTick = (e.currentTick &^ slotMask) | s
			e.drainSlot(0, int32(s))
			return true
		}
		if e.cascade() {
			continue
		}
		if e.overflow != nil {
			e.refillFromOverflow()
			continue
		}
		return false
	}
}

// cascade scans the higher levels finest-first for the nearest occupied
// slot, jumps the cursor to that slot's base tick, and redistributes its
// nodes to finer levels (or the batch, for nodes landing exactly on the
// new cursor tick).
func (e *Engine) cascade() bool {
	for level := 1; level < numLevels; level++ {
		shift := uint(level) * levelBits
		c := (e.currentTick >> shift) & slotMask
		// Strictly above the cursor's index: the cursor's own slot was
		// drained when the cursor entered this window.
		m := e.occ[level] &^ ((1 << (c + 1)) - 1)
		if m == 0 {
			continue
		}
		s := uint64(bits.TrailingZeros64(m))
		windowMask := uint64(1)<<(shift+levelBits) - 1
		e.currentTick = (e.currentTick &^ windowMask) | (s << shift)
		e.drainSlot(level, int32(s))
		return true
	}
	return false
}

// drainSlot reinserts every node of a wheel slot relative to the (just
// moved) cursor. Level-0 drains land entirely in the batch; higher-level
// drains scatter across finer levels. Intra-slot list order is irrelevant:
// the batch heap re-establishes the global (at, seq) order.
func (e *Engine) drainSlot(level int, slot int32) {
	n := e.levels[level][slot]
	e.levels[level][slot] = nil
	e.occ[level] &^= 1 << uint(slot)
	for n != nil {
		next := n.next
		n.next, n.prev = nil, nil
		e.place(n)
		n = next
	}
}

// refillFromOverflow jumps the cursor to the earliest overflow tick and
// reinserts every overflow node; nodes still beyond the horizon go back on
// the list. Overflow is empty in any realistic run (the horizon is ~52
// days), so the O(n) scan is fine.
func (e *Engine) refillFromOverflow() {
	minTick := ^uint64(0)
	for n := e.overflow; n != nil; n = n.next {
		if t := uint64(n.at) >> tickBits; t < minTick {
			minTick = t
		}
	}
	e.currentTick = minTick
	n := e.overflow
	e.overflow = nil
	for n != nil {
		next := n.next
		n.next, n.prev = nil, nil
		e.place(n)
		n = next
	}
}

// Cancel removes a scheduled event. Cancelling a fired or already-cancelled
// event is a no-op and returns false.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.n == nil {
		return false
	}
	n := ev.n
	e.unlink(n)
	ev.n = nil
	ev.cancel = true
	n.ev = nil
	e.pending--
	e.freeNode(n)
	return true
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// fireNext pops and executes the earliest due event. The caller has
// ensured the batch is non-empty; the batch minimum is the global minimum
// because every wheel node's tick is strictly ahead of the cursor.
func (e *Engine) fireNext(n *node) {
	e.batchRemove(0)
	e.now = n.at
	e.fired++
	e.pending--
	fn, r := n.fn, n.r
	if ev := n.ev; ev != nil {
		ev.n = nil
		n.ev = nil
	}
	e.freeNode(n)
	if r != nil {
		r.RunEvent()
	} else {
		fn()
	}
}

// Run executes events until no events remain or the clock would pass until.
// The clock is left at min(until, time of last event) — or exactly until if
// the queue drains earlier, so that repeated Run calls advance monotonically.
func (e *Engine) Run(until Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.batch) == 0 && !e.advance() {
			break
		}
		next := e.batch[0]
		if next.at > until {
			break
		}
		e.fireNext(next)
	}
	if !e.stopped && e.now < until {
		e.now = until
	}
}

// RunAll executes every remaining event. It panics after a very large number
// of events as a runaway-loop backstop.
func (e *Engine) RunAll() {
	const backstop = 1 << 34
	e.stopped = false
	for !e.stopped {
		if len(e.batch) == 0 && !e.advance() {
			break
		}
		e.fireNext(e.batch[0])
		if e.fired > backstop {
			panic(fmt.Sprintf("sim: runaway event loop: %d events fired", e.fired))
		}
	}
}

// Ticker invokes fn every period until cancelled via the returned stop
// function. The first tick fires one period from now. Each tick reuses one
// pooled node and the single ticker allocated here — re-arming does not
// allocate, unlike a Schedule chain which would build a handle per tick.
// It is a GatedTicker that is never put to sleep.
func (e *Engine) Ticker(period Time, fn func()) (stop func()) {
	return e.GatedTicker(period, fn).Stop
}

// GatedTicker is a Ticker whose callback can be put to sleep. While
// Now() is before the wake time a tick still fires, counts in Fired() and
// re-arms exactly as an ungated tick would — same time, same sequence
// number, same place in the event order — it only skips fn. A periodic
// poll uses it to skip passes it can prove are no-ops without moving the
// tick grid, so gating never changes a run's event order or outputs.
type GatedTicker struct {
	job tickerJob
}

// GatedTicker starts a ticker that invokes fn every period, first one
// period from now, and is awake until SleepUntil says otherwise.
func (e *Engine) GatedTicker(period Time, fn func()) *GatedTicker {
	if period <= 0 {
		panic("sim: Ticker with non-positive period")
	}
	g := &GatedTicker{job: tickerJob{e: e, period: period, fn: fn}}
	g.job.n = e.scheduleNode(e.now+period, nil, &g.job)
	return g
}

// SleepUntil skips fn on every tick before at; Infinity sleeps until the
// next Wake.
func (g *GatedTicker) SleepUntil(at Time) { g.job.wake = at }

// Wake makes the next tick invoke fn again.
func (g *GatedTicker) Wake() { g.job.wake = 0 }

// WakeAt returns the time before which ticks skip fn; 0 means awake.
func (g *GatedTicker) WakeAt() Time { return g.job.wake }

// Stop cancels the ticker; no further tick fires.
func (g *GatedTicker) Stop() { g.job.stop() }

type tickerJob struct {
	e       *Engine
	period  Time
	fn      func()
	n       *node
	wake    Time // fn is skipped while e.now < wake
	stopped bool
}

func (t *tickerJob) RunEvent() {
	if t.stopped {
		return
	}
	t.n = nil // the node that fired us is already recycled
	if t.e.now >= t.wake {
		t.fn()
	}
	if !t.stopped {
		t.n = t.e.scheduleNode(t.e.now+t.period, nil, t)
	}
}

func (t *tickerJob) stop() {
	t.stopped = true
	if n := t.n; n != nil {
		t.n = nil
		t.e.unlink(n)
		t.e.pending--
		t.e.freeNode(n)
	}
}

// --- batch heap: min-heap of nodes ordered by (at, seq) ---

func nodeLess(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) batchPush(n *node) {
	n.level = levelBatch
	n.index = int32(len(e.batch))
	e.batch = append(e.batch, n)
	e.batchUp(len(e.batch) - 1)
}

// batchRemove deletes the node at heap index i (0 = minimum) and restores
// the heap property.
func (e *Engine) batchRemove(i int) {
	last := len(e.batch) - 1
	if i != last {
		e.batchSwap(i, last)
	}
	e.batch[last] = nil
	e.batch = e.batch[:last]
	if i != last {
		if !e.batchUp(i) {
			e.batchDown(i)
		}
	}
}

func (e *Engine) batchSwap(i, j int) {
	b := e.batch
	b[i], b[j] = b[j], b[i]
	b[i].index = int32(i)
	b[j].index = int32(j)
}

func (e *Engine) batchUp(i int) (moved bool) {
	for i > 0 {
		parent := (i - 1) / 2
		if !nodeLess(e.batch[i], e.batch[parent]) {
			break
		}
		e.batchSwap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (e *Engine) batchDown(i int) {
	n := len(e.batch)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		m := left
		if right := left + 1; right < n && nodeLess(e.batch[right], e.batch[left]) {
			m = right
		}
		if !nodeLess(e.batch[m], e.batch[i]) {
			return
		}
		e.batchSwap(i, m)
		i = m
	}
}

// --- node pool ---

const nodeChunk = 128

func (e *Engine) allocNode() *node {
	n := e.free
	if n == nil {
		if len(e.freeChunk) == 0 {
			e.freeChunk = make([]node, nodeChunk)
		}
		n = &e.freeChunk[0]
		e.freeChunk = e.freeChunk[1:]
		return n
	}
	e.free = n.next
	n.next = nil
	return n
}

func (e *Engine) freeNode(n *node) {
	n.fn = nil
	n.r = nil
	n.ev = nil
	n.prev = nil
	n.level = levelFree
	n.next = e.free
	e.free = n
}
