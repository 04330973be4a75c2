// Package stripe schedules a single logical download across several
// concurrent Wi-Fi links. The paper's related-work section observes that
// data-striping systems (Horde, MAR, PERM) are complementary to Spider and
// "can be built into Spider to enhance mobile user performance"; this
// package is that integration: a block scheduler that assigns byte ranges
// to whichever links are currently up, rebalances when links die, and
// duplicates the tail blocks onto idle links so one dying AP cannot stall
// the transfer.
//
// The controller is transport-agnostic: it hands out (path, size) fetch
// orders through a callback and learns completion asynchronously, so it
// can be driven by the simulator's TCP flows or by unit tests directly.
package stripe

import (
	"fmt"
	"sort"

	"spider/internal/sim"
)

// blockSize is the fetch granularity in bytes.
const blockSize = 256 << 10

// FetchFunc starts fetching size bytes over the identified path. The
// transport must call done exactly once: true when the bytes fully
// arrived, false when the path failed. Calls after the path was removed
// are still accepted.
type FetchFunc func(pathID int, size int64, done func(ok bool))

type blockState uint8

const (
	blockPending blockState = iota
	blockActive
	blockDone
)

type block struct {
	idx     int
	size    int64
	state   blockState
	holders int // active fetch attempts
}

type path struct {
	id      int
	busy    bool
	block   int // index of the block being fetched, -1 if idle
	fetched int64
	failed  int
}

// Controller is the striping scheduler.
type Controller struct {
	eng   *sim.Engine
	fetch FetchFunc

	blocks  []*block
	paths   map[int]*path
	doneCnt int

	// OnComplete fires once every block has arrived.
	OnComplete func()

	// Stats.
	FetchesIssued  int
	FetchesFailed  int
	DuplicateFetch int
}

// New creates a controller for an object of total bytes. fetch is invoked
// re-entrantly from AddPath and from completion callbacks.
func New(eng *sim.Engine, total int64, fetch FetchFunc) *Controller {
	if total <= 0 {
		panic("stripe: New needs a positive object size")
	}
	if fetch == nil {
		panic("stripe: New needs a fetch func")
	}
	c := &Controller{eng: eng, fetch: fetch, paths: make(map[int]*path)}
	for off := int64(0); off < total; off += blockSize {
		size := int64(blockSize)
		if off+size > total {
			size = total - off
		}
		c.blocks = append(c.blocks, &block{idx: len(c.blocks), size: size, state: blockPending})
	}
	return c
}

// Done reports whether the whole object has arrived.
func (c *Controller) Done() bool { return c.doneCnt == len(c.blocks) }

// AddPath attaches a link and immediately puts it to work. Adding an
// existing id panics.
func (c *Controller) AddPath(id int) {
	if _, ok := c.paths[id]; ok {
		panic(fmt.Sprintf("stripe: duplicate path %d", id))
	}
	p := &path{id: id, block: -1}
	c.paths[id] = p
	c.assign(p)
}

// RemovePath detaches a dead link; its in-flight block returns to the
// pending pool (unless another path also holds it).
func (c *Controller) RemovePath(id int) {
	p, ok := c.paths[id]
	if !ok {
		return
	}
	delete(c.paths, id)
	if p.busy && p.block >= 0 {
		b := c.blocks[p.block]
		b.holders--
		if b.state == blockActive && b.holders == 0 {
			b.state = blockPending
			c.kick()
		}
	}
}

// nextBlock picks the block a path should fetch: the first pending block,
// or, once none is pending, the in-flight block with the fewest holders,
// so an idle path re-fetches the tail a straggler still holds.
func (c *Controller) nextBlock() *block {
	for _, b := range c.blocks {
		if b.state == blockPending {
			return b
		}
	}
	var best *block
	for _, b := range c.blocks {
		if b.state != blockActive {
			continue
		}
		if best == nil || b.holders < best.holders {
			best = b
		}
	}
	return best
}

// assign puts an idle path to work if any block needs fetching.
func (c *Controller) assign(p *path) {
	if p.busy || c.Done() {
		return
	}
	b := c.nextBlock()
	if b == nil {
		return
	}
	if b.state == blockActive {
		c.DuplicateFetch++
	}
	b.state = blockActive
	b.holders++
	p.busy = true
	p.block = b.idx
	c.FetchesIssued++
	id, size, idx := p.id, b.size, b.idx
	c.fetch(id, size, func(ok bool) { c.fetchDone(id, idx, ok) })
}

// kick gives every idle path a chance to pick up freed work. Paths with
// fewer failures go first (id breaks ties): a path that keeps failing must
// not starve a healthy one by re-claiming the block it just dropped. The
// order is a total one, so assignment never depends on map iteration.
func (c *Controller) kick() {
	var idle []*path
	for _, p := range c.paths {
		if !p.busy {
			idle = append(idle, p)
		}
	}
	sort.Slice(idle, func(i, j int) bool {
		if idle[i].failed != idle[j].failed {
			return idle[i].failed < idle[j].failed
		}
		return idle[i].id < idle[j].id
	})
	for _, p := range idle {
		c.assign(p)
	}
}

func (c *Controller) fetchDone(pathID, blockIdx int, ok bool) {
	b := c.blocks[blockIdx]
	p := c.paths[pathID]
	if p != nil && p.block == blockIdx {
		p.busy = false
		p.block = -1
		if ok {
			p.fetched += b.size
		} else {
			p.failed++
		}
	}
	if b.state != blockDone {
		b.holders--
		if b.holders < 0 {
			b.holders = 0
		}
	}
	switch {
	case ok && b.state != blockDone:
		b.state = blockDone
		c.doneCnt++
		if c.Done() {
			if c.OnComplete != nil {
				c.OnComplete()
			}
			return
		}
	case !ok:
		c.FetchesFailed++
		if b.state == blockActive && b.holders == 0 {
			b.state = blockPending
		}
	}
	c.kick()
}
