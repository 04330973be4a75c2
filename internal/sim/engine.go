// Package sim provides the discrete-event simulation kernel used by every
// other substrate in this repository: a virtual clock, an event scheduler
// with deterministic ordering, re-armable timers, and seeded random-number
// streams.
//
// All simulated components (radios, APs, DHCP servers, TCP endpoints,
// drivers) schedule callbacks on a shared *Engine. Events at equal virtual
// times fire in scheduling order, so a run is a pure function of its seed
// and parameters.
//
// The scheduler is a hierarchical timer wheel over pooled event nodes: far
// events cost O(1) to insert and sit in coarse slots until the clock nears
// them; due events drain into a small (at, seq)-ordered batch heap that
// reproduces the exact total order of a global binary heap. Tickers bypass
// the wheel: each period has a FIFO lane, which stays sorted because every
// arm lands at now+period with a fresh sequence number, and the fire loop
// merges the earliest lane head with the batch head by (at, seq).
// City-scale runs schedule tens of millions of events, so nodes are
// recycled through a free list. Schedule and ScheduleCall are
// fire-and-forget; a deadline its owner may move or drop is a Timer the
// owner embeds, which re-arms in place without allocating.
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
// pointer instead of allocating a closure.
type Runnable interface {
	RunEvent()
}

// Func adapts a function to Runnable. Binding a method value through it
// allocates the method's closure once per owner, so an owner the world
// holds thousands of binds itself, as a Runnable type, instead.
type Func func()

// RunEvent calls f.
func (f Func) RunEvent() { f() }

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
	levelLane     = -4 // on a ticker lane; node.index is the lane index
	levelFiring   = -5 // a ticker's node while its tick runs, on no list
)

// noLimit is advance's limit when no lane holds a node.
const noLimit = ^uint64(0)

// node is a pooled scheduler entry. It lives on exactly one of: a wheel
// slot's doubly-linked list, the overflow list, the batch heap, a ticker
// lane, or the free list. Nodes are recycled after firing or after a
// Timer's Stop; an armed Timer is detached from its node first, so it can
// never reach a recycled one. A ticker keeps one node for its whole life.
// The small fields are packed so a node stays 80 bytes.
type node struct {
	at    Time
	seq   uint64
	fn    func()
	r     Runnable
	t     *Timer // the armed timer that owns the node, nil for fire-and-forget
	wake  Time   // a ticker's ticks skip its callback while now < wake
	next  *node
	prev  *node
	index int32 // batch heap index (levelBatch), or lane index (levelLane)
	level int8  // wheel level, or a placement marker above
	slot  uint8 // wheel slot index within level
}

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

	batch       []*node // min-heap on (at, seq): the only totally ordered region
	overflow    *node   // events beyond the wheel horizon, unordered
	overflowMin uint64  // lower bound on the overflow list's ticks

	// lanes hold ticker nodes, one FIFO per period, each sorted by
	// (at, seq). laneMin is the earliest lane head, recomputed after a
	// head changes (laneStale).
	lanes     []lane
	laneMin   *node
	laneStale bool

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

// PeekNext returns the virtual time of the earliest scheduled event
// without firing it, and false when the queue is empty. A stopped Timer
// leaves the queue immediately, so the reported time is always live.
// FuzzEngine checks it against the heap reference; no loop of the program
// reads it.
func (e *Engine) PeekNext() (Time, bool) {
	if n := e.next(); n != nil {
		return n.at, true
	}
	return 0, false
}

// Schedule runs fn after delay. A negative delay is treated as zero: the
// event fires at the current time, after events already scheduled for that
// time. The event cannot be withdrawn; a deadline that may move or be
// dropped is a Timer.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to now.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	if fn == nil {
		panic("sim: ScheduleAt with nil callback")
	}
	e.scheduleNode(at, fn, nil)
}

// ScheduleCall runs r.RunEvent() after delay without allocating a closure.
// A negative delay is treated as zero. Use for fire-and-forget hot-path
// work (frame delivery, backhaul completions).
func (e *Engine) ScheduleCall(delay Time, r Runnable) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleCallAt(e.now+delay, r)
}

// ScheduleCallAt runs r.RunEvent() at absolute virtual time at (clamped to
// now) without allocating a closure.
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
		if e.overflow == nil || tick < e.overflowMin {
			e.overflowMin = tick
		}
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
	slot := uint8((tick >> (uint(level) * levelBits)) & slotMask)
	n.level = int8(level)
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

// next returns the earliest scheduled node without removing it, or nil when
// nothing is scheduled: the earlier of the batch head and the earliest lane
// head. With the batch empty it first advances the wheel, but never past
// the lane head's tick.
func (e *Engine) next() *node {
	l := e.laneHead()
	if len(e.batch) == 0 {
		limit := noLimit
		if l != nil {
			limit = uint64(l.at) >> tickBits
		}
		if !e.advance(limit) {
			return l
		}
	}
	if b := e.batch[0]; l == nil || nodeLess(b, l) {
		return b
	}
	return l
}

// advance fills an empty batch with the wheel's next occupied tick and
// reports whether the batch holds a node. It stops, leaving the cursor
// where it is, when every wheel node is later than limit (the lane head's
// tick), so the cursor never runs past a lane head that is due first. It
// never touches the clock (now), so PeekNext can call it freely.
func (e *Engine) advance(limit uint64) bool {
	for len(e.batch) == 0 {
		level, slot, tick := e.nearestSlot()
		switch {
		case level < 0 && e.overflow != nil:
			if e.overflowMin > limit {
				return false
			}
			e.refillFromOverflow()
		case level < 0 || tick > limit:
			return false
		default:
			e.currentTick = tick
			e.drainSlot(level, slot)
		}
	}
	return true
}

// nearestSlot finds the nearest occupied wheel slot ahead of the cursor,
// finest level first, and the tick the cursor takes on entering it (the
// slot's base tick). It returns level -1 when every level is empty.
// Slots at or below the cursor's own index are empty by construction (due
// events go to the batch, and the cursor drains each slot it enters), so
// masking from the cursor up never resurrects a past tick.
func (e *Engine) nearestSlot() (level int, slot uint8, tick uint64) {
	c0 := e.currentTick & slotMask
	if m := e.occ[0] &^ ((1 << c0) - 1); m != 0 {
		s := uint64(bits.TrailingZeros64(m))
		return 0, uint8(s), (e.currentTick &^ slotMask) | s
	}
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
		return level, uint8(s), (e.currentTick &^ windowMask) | (s << shift)
	}
	return -1, 0, 0
}

// drainSlot reinserts every node of a wheel slot relative to the (just
// moved) cursor. Level-0 drains land entirely in the batch; higher-level
// drains (cascades) scatter across finer levels. Intra-slot list order is
// irrelevant: the batch heap re-establishes the global (at, seq) order.
func (e *Engine) drainSlot(level int, slot uint8) {
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
	e.overflowMin = noLimit
	for n != nil {
		next := n.next
		n.next, n.prev = nil, nil
		e.place(n)
		n = next
	}
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// fire removes n, the node next returned, and executes it. A lane node
// stays with its ticker, which re-arms it; any other node is recycled
// before its callback runs.
func (e *Engine) fire(n *node) {
	e.now = n.at
	e.fired++
	e.pending--
	if n.level == levelLane {
		e.laneRemove(n)
		if e.now < n.wake {
			e.laneAppend(n) // asleep: the tick only re-arms
			return
		}
		n.level = levelFiring
		n.r.RunEvent()
		return
	}
	e.batchRemove(0)
	fn, r := n.fn, n.r
	if t := n.t; t != nil {
		t.n = nil // disarmed before its callback runs, which may re-arm it
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
		n := e.next()
		if n == nil || n.at > until {
			break
		}
		e.fire(n)
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
		n := e.next()
		if n == nil {
			break
		}
		e.fire(n)
		if e.fired > backstop {
			panic(fmt.Sprintf("sim: runaway event loop: %d events fired", e.fired))
		}
	}
}

// Timer is a one-shot deadline that its owner embeds and binds to a
// Runnable once. Reset and ResetAt arm it, or move it when it is already
// armed; Stop disarms it. A move re-arms the timer's node in place: it
// unlinks the node, sets the new time, takes the next sequence number and
// places it again, which gives the same (time, sequence) as dropping the
// old deadline and scheduling a new one, without a free or an allocation.
// The timer is disarmed before its callback runs, so the callback may
// re-arm it.
//
// An armed timer owns an engine node that points back at it, so a Timer
// must not be copied; go vet rejects a copy by value.
type Timer struct {
	noCopy noCopy
	e      *Engine
	n      *node // the armed node; nil while disarmed
	r      Runnable
}

// Bind ties the timer to e and to the Runnable it runs when it fires.
// Bind it once, before the first arm.
func (t *Timer) Bind(e *Engine, r Runnable) {
	if r == nil {
		panic("sim: Timer bound to a nil Runnable")
	}
	t.e, t.r = e, r
}

// Armed reports whether the timer is waiting to fire.
func (t *Timer) Armed() bool { return t.n != nil }

// At returns the time the armed timer fires at, and 0 when it is disarmed.
func (t *Timer) At() Time {
	if t.n == nil {
		return 0
	}
	return t.n.at
}

// Reset arms the timer to fire after delay, moving it if it is armed. A
// negative delay is treated as zero.
func (t *Timer) Reset(delay Time) {
	if delay < 0 {
		delay = 0
	}
	t.ResetAt(t.e.now + delay)
}

// ResetAt arms the timer to fire at absolute virtual time at (clamped to
// now), moving it if it is armed.
func (t *Timer) ResetAt(at Time) {
	e := t.e
	n := t.n
	if n == nil {
		n = e.scheduleNode(at, nil, t.r)
		n.t = t
		t.n = n
		return
	}
	if at < e.now {
		at = e.now
	}
	e.unlink(n)
	n.at = at
	n.seq = e.seq
	e.seq++
	e.place(n)
}

// Stop disarms the timer. It reports whether the timer was armed; stopping
// a fired or stopped timer is a no-op.
func (t *Timer) Stop() bool {
	n := t.n
	if n == nil {
		return false
	}
	t.n = nil
	e := t.e
	e.unlink(n)
	e.pending--
	e.freeNode(n)
	return true
}

// noCopy marks a struct that must not be copied after first use: go vet's
// copylocks check reports any copy by value of a struct holding one.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Ticker invokes fn every period until cancelled via the returned stop
// function. The first tick fires one period from now. Ticks never enter
// the timer wheel: each one is appended to its period's lane, and the one
// pooled node and the single ticker allocated here are reused by every
// re-arm, so a running ticker allocates nothing. It is a GatedTicker that
// is never put to sleep.
func (e *Engine) Ticker(period Time, fn func()) (stop func()) {
	return e.GatedTicker(period, fn).Stop
}

// GatedTicker is a Ticker whose callback can be put to sleep. While
// Now() is before the wake time a tick still fires, counts in Fired() and
// re-arms exactly as an ungated tick would — same time, same sequence
// number, same place in its lane and in the event order — it only skips
// fn. A periodic poll uses it to skip passes it can prove are no-ops
// without moving the tick grid, so gating never changes a run's event
// order or outputs. The wake time sits on the ticker's node, so a
// sleeping tick is one lane pop and one append.
type GatedTicker struct {
	job tickerJob
}

// GatedTicker starts a ticker that invokes fn every period, first one
// period from now, and is awake until SleepUntil says otherwise.
func (e *Engine) GatedTicker(period Time, fn func()) *GatedTicker {
	if period <= 0 {
		panic("sim: Ticker with non-positive period")
	}
	g := &GatedTicker{job: tickerJob{e: e, fn: fn}}
	n := e.allocNode()
	n.r = &g.job
	n.index = e.laneFor(period)
	g.job.n = n
	e.laneAppend(n)
	return g
}

// SleepUntil skips fn on every tick before at; Infinity sleeps until the
// next Wake.
func (g *GatedTicker) SleepUntil(at Time) {
	if n := g.job.n; n != nil {
		n.wake = at
	}
}

// Wake makes the next tick invoke fn again.
func (g *GatedTicker) Wake() { g.SleepUntil(0) }

// WakeAt returns the time before which ticks skip fn; 0 means awake or
// stopped.
func (g *GatedTicker) WakeAt() Time {
	if n := g.job.n; n != nil {
		return n.wake
	}
	return 0
}

// Stop cancels the ticker; no further tick fires.
func (g *GatedTicker) Stop() { g.job.stop() }

// tickerJob is a ticker's Runnable. The wake time lives on its node, so a
// sleeping tick re-arms without touching the job.
type tickerJob struct {
	e  *Engine
	fn func()
	n  *node // the ticker's node; nil once stopped
}

// RunEvent runs an awake tick: fn, then the re-arm, which takes its
// sequence number after everything fn scheduled.
func (t *tickerJob) RunEvent() {
	t.fn()
	if t.n != nil {
		t.e.laneAppend(t.n)
	}
}

// stop takes the ticker's node off its lane, or, when called from the
// ticker's own callback, lets RunEvent skip the re-arm.
func (t *tickerJob) stop() {
	n := t.n
	if n == nil {
		return
	}
	t.n = nil
	if n.level == levelLane {
		t.e.laneRemove(n)
		t.e.pending--
	}
	t.e.freeNode(n)
}

// --- ticker lanes: one FIFO of ticker nodes per period ---

// lane is the queue of every armed ticker with one period. Each arm lands
// at now+period with the next sequence number, and neither ever
// decreases, so appending at the tail keeps the lane sorted by (at, seq).
type lane struct {
	period     Time
	head, tail *node
}

// laneFor returns the index of period's lane, adding it on first use.
// Worlds use a handful of periods, so a scan beats a map.
func (e *Engine) laneFor(period Time) int32 {
	for i := range e.lanes {
		if e.lanes[i].period == period {
			return int32(i)
		}
	}
	e.lanes = append(e.lanes, lane{period: period})
	return int32(len(e.lanes) - 1)
}

// laneAppend arms a ticker node one period from now at its lane's tail.
func (e *Engine) laneAppend(n *node) {
	l := &e.lanes[n.index]
	n.at = e.now + l.period
	n.seq = e.seq
	e.seq++
	e.pending++
	n.level = levelLane
	n.next = nil
	n.prev = l.tail
	if l.tail != nil {
		l.tail.next = n
	} else {
		l.head = n
		e.laneStale = true
	}
	l.tail = n
}

// laneRemove unlinks a node from its lane.
func (e *Engine) laneRemove(n *node) {
	l := &e.lanes[n.index]
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
		e.laneStale = true
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.next, n.prev = nil, nil
}

// laneHead returns the earliest lane head, or nil when every lane is empty.
// The scan costs one comparison per period, whatever the number of tickers.
func (e *Engine) laneHead() *node {
	if e.laneStale {
		e.laneStale = false
		e.laneMin = nil
		for i := range e.lanes {
			if h := e.lanes[i].head; h != nil && (e.laneMin == nil || nodeLess(h, e.laneMin)) {
				e.laneMin = h
			}
		}
	}
	return e.laneMin
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
	n.t = nil
	n.wake = 0
	n.prev = nil
	n.level = levelFree
	n.next = e.free
	e.free = n
}
