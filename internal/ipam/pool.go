package ipam

import (
	"fmt"

	"spider/internal/dot11"
	"spider/internal/ipnet"
)

// pool is one named allocation space. Allocation order is deterministic:
// released addresses reuse LIFO, otherwise the lowest untouched address
// goes next.
//
// claim (requested-address validation) can take any member address, which
// is why both the free list and the untouched tail re-check the used map:
// a claimed address may still sit in either structure and is simply
// skipped when allocation reaches it.
type pool struct {
	name   string
	addrs  []ipnet.Addr // allocation order (ascending for CIDR carves)
	member map[ipnet.Addr]bool
	next   int          // low-water index into addrs
	free   []ipnet.Addr // released addresses, reused LIFO
	used   map[ipnet.Addr]dot11.MACAddr
}

func newPool(name string, addrs []ipnet.Addr) *pool {
	p := &pool{
		name:   name,
		addrs:  addrs,
		member: make(map[ipnet.Addr]bool, len(addrs)),
		used:   make(map[ipnet.Addr]dot11.MACAddr),
	}
	for _, a := range addrs {
		p.member[a] = true
	}
	return p
}

func (p *pool) capacity() int { return len(p.addrs) }
func (p *pool) inUse() int    { return len(p.used) }
func (p *pool) full() bool    { return len(p.used) >= len(p.addrs) }

// alloc hands out the next address to mac: the free list first (LIFO),
// then the untouched tail lowest-first. Entries claimed out of order are
// skipped.
func (p *pool) alloc(mac dot11.MACAddr) (ipnet.Addr, bool) {
	for n := len(p.free); n > 0; n = len(p.free) {
		a := p.free[n-1]
		p.free = p.free[:n-1]
		if _, taken := p.used[a]; taken {
			continue
		}
		p.used[a] = mac
		return a, true
	}
	for p.next < len(p.addrs) {
		a := p.addrs[p.next]
		p.next++
		if _, taken := p.used[a]; taken {
			continue
		}
		p.used[a] = mac
		return a, true
	}
	return ipnet.Unspecified, false
}

// claim takes one specific member address for mac (requested-address
// validation). False when the address is outside the pool or held.
func (p *pool) claim(a ipnet.Addr, mac dot11.MACAddr) bool {
	if !p.member[a] {
		return false
	}
	if _, taken := p.used[a]; taken {
		return false
	}
	p.used[a] = mac
	return true
}

// release returns an address to the free list. When the pool empties out
// completely, allocation state rewinds to the virgin order — so an AP
// that power-cycles an exclusive pool hands out its first address first
// again.
func (p *pool) release(a ipnet.Addr) {
	if _, ok := p.used[a]; !ok {
		return
	}
	delete(p.used, a)
	p.free = append(p.free, a)
	if len(p.used) == 0 {
		p.next = 0
		p.free = p.free[:0]
	}
}

// carve removes n addresses from the top of the untouched tail and
// returns them (ascending) — the per-AP reserved-range mechanism. Only
// legal before any allocation has consumed the tail region being carved.
func (p *pool) carve(n int) ([]ipnet.Addr, error) {
	if n <= 0 {
		return nil, nil
	}
	if len(p.addrs)-p.next < n {
		return nil, fmt.Errorf("pool %q: cannot reserve %d addresses (%d uncommitted)",
			p.name, n, len(p.addrs)-p.next)
	}
	cut := len(p.addrs) - n
	carved := append([]ipnet.Addr(nil), p.addrs[cut:]...)
	for _, a := range carved {
		if _, taken := p.used[a]; taken {
			return nil, fmt.Errorf("pool %q: reserve address %s already allocated", p.name, a)
		}
		delete(p.member, a)
	}
	p.addrs = p.addrs[:cut]
	return carved, nil
}
