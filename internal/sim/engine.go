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
// Every pending event is one pooled 64-byte node that carries one
// Runnable. The scheduler is a hierarchical timer wheel whose levels span
// every Time: far events cost O(1) to insert and sit in coarse slots until
// the clock nears them; due events drain into a small (at, seq)-ordered
// batch heap that reproduces the exact total order of a global binary
// heap. Tickers bypass the wheel: each period has a FIFO lane, which stays
// sorted because every arm lands at now+period with a fresh sequence
// number, and the fire loop merges the earliest lane head with the batch
// head by (at, seq). City-scale runs schedule tens of millions of events,
// so nodes are recycled through a free list. Schedule and ScheduleCall are
// fire-and-forget; a deadline its owner may move or drop is a Timer the
// owner embeds, which re-arms in place without allocating. A delay that
// would pass Infinity saturates there, so it never fires in a bounded Run.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is an absolute virtual time measured from the start of the run.
type Time = time.Duration

// Infinity is the last Time. An event at Infinity fires only in RunAll or
// in Run(Infinity).
const Infinity Time = math.MaxInt64

// Later returns the time delay after t: t itself for a negative delay, and
// Infinity when the sum would pass it.
func Later(t, delay Time) Time {
	if delay <= 0 {
		return t
	}
	if at := t + delay; at > t {
		return at
	}
	return Infinity
}

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
// batch heap. A Time has 63 bits, so a tick has 47, and 8 levels of 64
// slots (48 bits) hold every Time, Infinity included.
const (
	tickBits   = 16
	levelBits  = 6
	wheelSlots = 1 << levelBits // 64
	slotMask   = wheelSlots - 1
	numLevels  = 8
)

// node placement markers (node.level); values >= 0 are wheel levels.
const (
	levelBatch  = -1 // in the due-batch heap; node.index is the heap slot
	levelFree   = -2 // on the free list
	levelLane   = -3 // on a ticker lane; node.index is the lane index
	levelFiring = -4 // a ticker's node while its tick runs, on no list
)

// noLimit is advance's limit when no lane holds a node.
const noLimit = ^uint64(0)

// node is a pooled scheduler entry. It lives on exactly one of: a wheel
// slot's doubly-linked list, the batch heap, a ticker lane, or the free
// list. Its one callback is r: Schedule's Func, ScheduleCall's Runnable,
// an armed Timer (as timerRun) or a Ticker (as tickerRun). Nodes are
// recycled after firing or after a Timer's Stop; an armed Timer is
// disarmed before its callback runs, so it can never reach a recycled
// one. A ticker keeps one node for its whole life. The small fields are
// packed so a node is 64 bytes, one cache line.
type node struct {
	at    Time
	seq   uint64
	r     Runnable
	wake  Time // a ticker's ticks skip its callback while now < wake
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
	pending int

	// currentTick is the wheel cursor: every node stored in a wheel level
	// has tick(at) > currentTick, and every node in the batch has
	// tick(at) <= currentTick. The cursor only moves forward, and may run
	// ahead of now (events scheduled behind it simply join the batch,
	// where the heap restores (at, seq) order).
	currentTick uint64
	levels      [numLevels][wheelSlots]*node
	occ         [numLevels]uint64 // per-level slot occupancy bitmask

	batch []*node // min-heap on (at, seq): the only totally ordered region

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

// Schedule runs fn after delay. A negative delay is treated as zero: the
// event fires at the current time, after events already scheduled for that
// time. The event cannot be withdrawn; a deadline that may move or be
// dropped is a Timer.
func (e *Engine) Schedule(delay Time, fn func()) {
	e.ScheduleAt(Later(e.now, delay), fn)
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to now.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	if fn == nil {
		panic("sim: ScheduleAt with nil callback")
	}
	e.scheduleNode(at, Func(fn))
}

// ScheduleCall runs r.RunEvent() after delay without allocating a closure.
// A negative delay is treated as zero. Use for fire-and-forget hot-path
// work (frame delivery, backhaul completions).
func (e *Engine) ScheduleCall(delay Time, r Runnable) {
	e.ScheduleCallAt(Later(e.now, delay), r)
}

// ScheduleCallAt runs r.RunEvent() at absolute virtual time at (clamped to
// now) without allocating a closure.
func (e *Engine) ScheduleCallAt(at Time, r Runnable) {
	if r == nil {
		panic("sim: ScheduleCallAt with nil Runnable")
	}
	e.scheduleNode(at, r)
}

func (e *Engine) scheduleNode(at Time, r Runnable) *node {
	if at < e.now {
		at = e.now
	}
	n := e.allocNode()
	n.at = at
	n.seq = e.seq
	n.r = r
	e.seq++
	e.pending++
	e.place(n)
	return n
}

// place inserts a node into the region its tick calls for: the batch heap
// when it is not ahead of the cursor, otherwise the wheel level of the
// highest bit in which its tick differs from the cursor's.
func (e *Engine) place(n *node) {
	tick := uint64(n.at) >> tickBits
	if tick <= e.currentTick {
		e.batchPush(n)
		return
	}
	level := (bits.Len64(tick^e.currentTick) - 1) / levelBits
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

// unlink removes a node from the batch heap or its wheel slot.
func (e *Engine) unlink(n *node) {
	if n.level == levelBatch {
		e.batchRemove(int(n.index))
		return
	}
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
// never touches the clock (now), so Run can look at the next node before
// it decides to fire it.
func (e *Engine) advance(limit uint64) bool {
	for len(e.batch) == 0 {
		level, slot, tick := e.nearestSlot()
		if level < 0 || tick > limit {
			return false
		}
		e.currentTick = tick
		e.drainSlot(level, slot)
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
	r := n.r
	e.freeNode(n)
	r.RunEvent()
}

// Run executes events until no events remain or the clock would pass until.
// The clock is left at min(until, time of last event) — or exactly until if
// the queue drains earlier, so that repeated Run calls advance monotonically.
func (e *Engine) Run(until Time) {
	for n := e.next(); n != nil && n.at <= until; n = e.next() {
		e.fire(n)
	}
	if e.now < until {
		e.now = until
	}
}

// RunAll executes every remaining event. It panics after a very large number
// of events as a runaway-loop backstop.
func (e *Engine) RunAll() {
	const backstop = 1 << 34
	for n := e.next(); n != nil; n = e.next() {
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
// An armed timer's node runs the timer itself (as timerRun), so a Timer
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
	t.ResetAt(Later(t.e.now, delay))
}

// ResetAt arms the timer to fire at absolute virtual time at (clamped to
// now), moving it if it is armed.
func (t *Timer) ResetAt(at Time) {
	e := t.e
	n := t.n
	if n == nil {
		t.n = e.scheduleNode(at, (*timerRun)(t))
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

// timerRun is an armed Timer's Runnable: it disarms the timer, then runs
// the owner's Runnable, which may re-arm it.
type timerRun Timer

func (t *timerRun) RunEvent() {
	t.n = nil
	t.r.RunEvent()
}

// noCopy marks a struct that must not be copied after first use: go vet's
// copylocks check reports any copy by value of a struct holding one.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Ticker invokes a callback every period, first one period from now, until
// Stop. Ticks never enter the timer wheel: each one is appended to its
// period's lane, and the ticker's one pooled node is reused by every
// re-arm, so a running ticker allocates nothing.
//
// A ticker's callback can be put to sleep. While Now() is before the wake
// time a tick still fires, counts in Fired() and re-arms exactly as an
// awake tick would — same time, same sequence number, same place in its
// lane and in the event order — it only skips the callback. A periodic
// poll uses it to skip passes it can prove are no-ops without moving the
// tick grid, so sleeping never changes a run's event order or outputs.
// The wake time sits on the ticker's node, so a sleeping tick is one lane
// pop and one append.
type Ticker struct {
	e  *Engine
	fn func()
	n  *node // the ticker's node; nil once stopped
}

// Ticker starts a ticker that invokes fn every period, first one period
// from now, and is awake until SleepUntil says otherwise.
func (e *Engine) Ticker(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Ticker with non-positive period")
	}
	t := &Ticker{e: e, fn: fn}
	n := e.allocNode()
	n.r = (*tickerRun)(t)
	n.index = e.laneFor(period)
	t.n = n
	e.laneAppend(n)
	return t
}

// SleepUntil skips the callback on every tick before at; Infinity sleeps
// until the next Wake.
func (t *Ticker) SleepUntil(at Time) {
	if n := t.n; n != nil {
		n.wake = at
	}
}

// Wake makes the next tick invoke the callback again.
func (t *Ticker) Wake() { t.SleepUntil(0) }

// WakeAt returns the time before which ticks skip the callback; 0 means
// awake or stopped.
func (t *Ticker) WakeAt() Time {
	if n := t.n; n != nil {
		return n.wake
	}
	return 0
}

// Stop cancels the ticker; no further tick fires. Called from the ticker's
// own callback, it makes that tick skip its re-arm.
func (t *Ticker) Stop() {
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

// tickerRun is a Ticker's Runnable. The wake time lives on its node, so a
// sleeping tick re-arms without touching the ticker.
type tickerRun Ticker

// RunEvent runs an awake tick: fn, then the re-arm, which takes its
// sequence number after everything fn scheduled.
func (t *tickerRun) RunEvent() {
	t.fn()
	if t.n != nil {
		t.e.laneAppend(t.n)
	}
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
	n.r = nil
	n.wake = 0
	n.prev = nil
	n.level = levelFree
	n.next = e.free
	e.free = n
}
