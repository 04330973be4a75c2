package ipam

import (
	"bytes"
	"sort"

	"spider/internal/dot11"
	"spider/internal/ipnet"
	"spider/internal/sim"
)

// Lease is one MAC's hold on an address within a binding. Expiry is the
// sim time the lease becomes reclaimable (0 = never); renewals refresh
// it, so only vehicles that vanished mid-lease are ever swept.
type Lease struct {
	Addr   ipnet.Addr
	MAC    dot11.MACAddr
	Pool   string
	Expiry sim.Time

	p *pool
}

// Binding is one AP's view of its pool hierarchy: the group's pools in
// failover order, an optional exclusive reserve, and the AP's own lease
// table. Leases are per-binding — one vehicle legitimately holds a lease
// at several APs at once (Spider's whole point) — while address
// availability is per-pool, shared across every binding of the group.
type Binding struct {
	m       *Manager
	name    string
	pools   []*pool
	reserve *pool
	leases  map[dot11.MACAddr]*Lease
}

// LeaseCount returns the number of live leases held through this binding.
func (b *Binding) LeaseCount() int { return len(b.leases) }

// HasLease reports whether mac holds any lease here.
func (b *Binding) HasLease(mac dot11.MACAddr) bool {
	_, ok := b.leases[mac]
	return ok
}

// Full reports whether a fresh allocation would fail right now: every
// pool of the hierarchy and the reserve are completely in use. This is
// the signal outage attribution reads to name `ipam-exhausted`.
func (b *Binding) Full() bool {
	for _, p := range b.pools {
		if !p.full() {
			return false
		}
	}
	return b.reserve == nil || b.reserve.full()
}

// expiry computes a lease deadline (0 when ttl is non-positive: never).
func expiry(now, ttl sim.Time) sim.Time {
	if ttl <= 0 {
		return 0
	}
	return now + ttl
}

// Allocate returns mac's stable address, allocating one on first contact:
// the primary pool first, then each backup in declared order, then the
// binding's exclusive reserve. An existing lease just refreshes its
// expiry — renewal is what keeps a vehicle's address off the GC sweep.
func (b *Binding) Allocate(now sim.Time, mac dot11.MACAddr, ttl sim.Time) (ipnet.Addr, error) {
	if l, ok := b.leases[mac]; ok {
		l.Expiry = expiry(now, ttl)
		return l.Addr, nil
	}
	tries := b.pools
	if b.reserve != nil {
		tries = append(append([]*pool(nil), b.pools...), b.reserve)
	}
	for i, p := range tries {
		a, ok := p.alloc(mac)
		if !ok {
			continue
		}
		b.record(now, mac, a, p, ttl)
		if i > 0 {
			b.m.st.Failovers++
			b.m.emit(now, kindFailover, b.name, p.name, int64(a))
		}
		return a, nil
	}
	b.m.st.Exhausted++
	return ipnet.Unspecified, ErrExhausted
}

// AllocateSpecific validates a requested address against the live pools —
// the INIT-REBOOT / renewal path. The request succeeds when mac already
// holds exactly that address here, or when the address belongs to one of
// the binding's pools and is free to claim. Anything else is ErrConflict:
// the lease was reclaimed and re-issued, the address belongs to another
// hierarchy, or the client's cache is stale — and the server must NAK
// rather than silently double-allocate.
func (b *Binding) AllocateSpecific(now sim.Time, mac dot11.MACAddr, want ipnet.Addr, ttl sim.Time) (ipnet.Addr, error) {
	if l, ok := b.leases[mac]; ok {
		if l.Addr == want {
			l.Expiry = expiry(now, ttl)
			return l.Addr, nil
		}
		b.m.st.Conflicts++
		return ipnet.Unspecified, ErrConflict
	}
	tries := b.pools
	if b.reserve != nil {
		tries = append(append([]*pool(nil), b.pools...), b.reserve)
	}
	for _, p := range tries {
		if !p.member[want] {
			continue
		}
		if p.claim(want, mac) {
			b.record(now, mac, want, p, ttl)
			return want, nil
		}
		break // in this pool but held by someone else
	}
	b.m.st.Conflicts++
	return ipnet.Unspecified, ErrConflict
}

// record registers a fresh lease and emits the alloc event.
func (b *Binding) record(now sim.Time, mac dot11.MACAddr, a ipnet.Addr, p *pool, ttl sim.Time) {
	if b.leases == nil {
		b.leases = make(map[dot11.MACAddr]*Lease)
	}
	b.leases[mac] = &Lease{Addr: a, MAC: mac, Pool: p.name, Expiry: expiry(now, ttl), p: p}
	b.m.st.Allocs++
	b.m.emit(now, kindAlloc, b.name, p.name, int64(a))
}

// Reset drops every lease this binding holds — an AP power cycle. Leases
// release in ascending address order so shared-pool free lists rebuild
// identically on every run; pools that empty out entirely (the exclusive
// per-AP case) rewind to virgin allocation order, so a power-cycled AP
// hands out the addresses it handed out from boot.
func (b *Binding) Reset() {
	for _, l := range b.sortedLeases() {
		delete(b.leases, l.MAC)
		l.p.release(l.Addr)
	}
	if b.reserve != nil && b.reserve.inUse() == 0 {
		b.reserve.next = 0
		b.reserve.free = b.reserve.free[:0]
	}
}

// SweepExpired reclaims every lease whose expiry has passed, in ascending
// address order, and returns the reclaimed leases. One ipam.gc event is
// emitted per pool touched (Value = reclaim count), and Stats.Reclaimed
// advances — this is the vanished-vehicle GC.
func (b *Binding) SweepExpired(now sim.Time) []Lease {
	var out []Lease
	for _, l := range b.sortedLeases() {
		if l.Expiry <= 0 || l.Expiry > now {
			continue
		}
		delete(b.leases, l.MAC)
		l.p.release(l.Addr)
		out = append(out, *l)
	}
	if len(out) == 0 {
		return nil
	}
	b.m.st.Reclaimed += int64(len(out))
	// Per-pool gc events in hierarchy order (reserve last).
	perPool := make(map[string]int64, 2)
	for _, l := range out {
		perPool[l.Pool]++
	}
	for _, p := range b.poolOrder() {
		if n := perPool[p.name]; n > 0 {
			b.m.emit(now, kindGC, b.name, p.name, n)
		}
	}
	return out
}

// NextExpiry returns the earliest pending lease deadline (0 when no lease
// expires) — what lets a DHCP server schedule exactly one sweep event
// instead of polling.
func (b *Binding) NextExpiry() sim.Time {
	var min sim.Time
	for _, l := range b.leases {
		if l.Expiry <= 0 {
			continue
		}
		if min == 0 || l.Expiry < min {
			min = l.Expiry
		}
	}
	return min
}

// poolOrder returns the hierarchy with the reserve appended.
func (b *Binding) poolOrder() []*pool {
	if b.reserve == nil {
		return b.pools
	}
	return append(append([]*pool(nil), b.pools...), b.reserve)
}

// sortedLeases returns the lease set in ascending address order — the
// deterministic iteration order for sweeps and resets.
func (b *Binding) sortedLeases() []*Lease {
	out := make([]*Lease, 0, len(b.leases))
	for _, l := range b.leases {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return bytes.Compare(out[i].MAC[:], out[j].MAC[:]) < 0
	})
	return out
}
