// Package ipam is the address-management subsystem behind every simulated
// DHCP server: named pools carved from CIDR subnets, pool hierarchies
// shared by many APs on one backhaul segment, ordered backup-pool
// failover when a primary exhausts, per-AP reserved ranges, and
// deterministic sim-time lease expiry ("GC") that reclaims the addresses
// of vanished vehicles.
//
// The paper's join-latency model makes DHCP a first-class failure mode,
// and city-scale scenarios put thousands of short-lived clients through
// small residential pools; this package is what lets those scenarios
// distinguish "the radio lost the race" from "the address plane ran dry"
// (the `ipam-exhausted` outage cause).
//
// Determinism contract: allocation order is a pure function of the call
// sequence — lowest-free-first within a pool, released addresses reused
// LIFO, pools tried in declared failover order, expired leases reclaimed
// in ascending address order. Nothing here draws randomness, reads wall
// clock, or iterates a map in observable order, so a scenario's address
// assignments are byte-identical across repeats and fleet worker counts.
package ipam

import (
	"errors"
	"fmt"

	"spider/internal/ipnet"
	"spider/internal/obs"
	"spider/internal/sim"
)

// Event kinds this package emits (aliased for brevity at the call sites).
const (
	kindAlloc    = obs.KindIPAMAlloc
	kindFailover = obs.KindIPAMFailover
	kindGC       = obs.KindIPAMGC
)

// Typed allocation errors. Exhaustion (nothing free anywhere in the
// binding's hierarchy) and conflict (the requested address exists but is
// not available to this client) are different failures: a client should
// retry a conflict with a fresh Discover but back off from exhaustion.
var (
	ErrExhausted = errors.New("ipam: address space exhausted")
	ErrConflict  = errors.New("ipam: address conflict")
	ErrNoGroup   = errors.New("ipam: unknown pool group")
)

// PoolSpec declares one named pool. Addresses come either from a CIDR
// block (network, broadcast, and any excluded addresses — gateways — are
// never handed out) or from an explicit address list (how core's default
// plan gives each AP gw+1 … gw+size).
type PoolSpec struct {
	Name string
	// CIDR is the block to carve host addresses from (when valid).
	CIDR ipnet.Prefix
	// Exclude lists addresses inside CIDR that must never be allocated.
	Exclude []ipnet.Addr
	// Addrs is the explicit allocatable set (used when CIDR is not set);
	// order is preserved as the allocation order.
	Addrs []ipnet.Addr
}

// GroupSpec names an ordered pool hierarchy: Pools[0] is the primary,
// the rest are backups tried in order when everything before them is
// exhausted. Every AP on one backhaul segment binds to the same group
// and therefore shares its address space.
type GroupSpec struct {
	Name  string
	Pools []string
}

// Config declares a manager's pools and hierarchies.
type Config struct {
	Pools  []PoolSpec
	Groups []GroupSpec
	// DefaultGroup is the group used when Bind is called with an empty
	// group name (defaults to the first declared group).
	DefaultGroup string
	// ReservePerAP carves this many addresses off the top of the primary
	// pool as each binding's exclusive reserve: a guarantee that one AP's
	// burst cannot starve a neighbour completely.
	ReservePerAP int
}

// Stats is a snapshot of the manager's allocation counters.
type Stats struct {
	Allocs    int64 // successful allocations (fresh addresses)
	Failovers int64 // allocations served by a non-primary pool
	Reclaimed int64 // leases reclaimed by the expiry sweep
	Exhausted int64 // allocation attempts refused: nothing free
	Conflicts int64 // requested-address validations refused
}

// PoolStatus reports one pool's occupancy.
type PoolStatus struct {
	Name     string
	Capacity int
	InUse    int
}

// Manager owns the pools and hands out per-AP bindings. All methods are
// called from a single simulation goroutine, like the rest of the stack.
type Manager struct {
	pools    map[string]*pool
	order    []string
	groups   map[string][]string
	groupDef string
	reserve  int
	st       Stats
	log      *obs.ClientLog
}

// New validates the config and builds the manager. Pool CIDRs must not
// overlap, group members must exist, and every pool needs at least one
// allocatable address.
func New(cfg Config) (*Manager, error) {
	if len(cfg.Pools) == 0 {
		return nil, errors.New("ipam: config declares no pools")
	}
	m := &Manager{
		pools:   make(map[string]*pool, len(cfg.Pools)),
		groups:  make(map[string][]string, len(cfg.Groups)),
		reserve: cfg.ReservePerAP,
	}
	var cidrs []ipnet.Prefix
	for _, ps := range cfg.Pools {
		if ps.Name == "" {
			return nil, errors.New("ipam: pool with empty name")
		}
		if _, dup := m.pools[ps.Name]; dup {
			return nil, fmt.Errorf("ipam: duplicate pool %q", ps.Name)
		}
		var addrs []ipnet.Addr
		switch {
		case ps.CIDR.IsValid():
			for _, c := range cidrs {
				if c.Overlaps(ps.CIDR) {
					return nil, fmt.Errorf("ipam: pool %q CIDR %s overlaps %s", ps.Name, ps.CIDR, c)
				}
			}
			cidrs = append(cidrs, ps.CIDR)
			addrs = ps.CIDR.Hosts(ps.Exclude...)
		case len(ps.Addrs) > 0:
			addrs = append([]ipnet.Addr(nil), ps.Addrs...)
		default:
			return nil, fmt.Errorf("ipam: pool %q has neither CIDR nor Addrs", ps.Name)
		}
		if len(addrs) == 0 {
			return nil, fmt.Errorf("ipam: pool %q has no allocatable addresses", ps.Name)
		}
		m.pools[ps.Name] = newPool(ps.Name, addrs)
		m.order = append(m.order, ps.Name)
	}
	for _, gs := range cfg.Groups {
		if gs.Name == "" {
			return nil, errors.New("ipam: group with empty name")
		}
		if _, dup := m.groups[gs.Name]; dup {
			return nil, fmt.Errorf("ipam: duplicate group %q", gs.Name)
		}
		if len(gs.Pools) == 0 {
			return nil, fmt.Errorf("ipam: group %q has no pools", gs.Name)
		}
		for _, pn := range gs.Pools {
			if _, ok := m.pools[pn]; !ok {
				return nil, fmt.Errorf("ipam: group %q references unknown pool %q", gs.Name, pn)
			}
		}
		m.groups[gs.Name] = append([]string(nil), gs.Pools...)
		if m.groupDef == "" {
			m.groupDef = gs.Name
		}
	}
	if len(m.groups) == 0 {
		return nil, errors.New("ipam: config declares no groups")
	}
	if cfg.DefaultGroup != "" {
		if _, ok := m.groups[cfg.DefaultGroup]; !ok {
			return nil, fmt.Errorf("ipam: default group %q not declared", cfg.DefaultGroup)
		}
		m.groupDef = cfg.DefaultGroup
	}
	return m, nil
}

// MustNew is New for literal configs; it panics on error.
func MustNew(cfg Config) *Manager {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// SetLog attaches the world event log the address-plane lifecycle
// records on. A nil log disables it.
func (m *Manager) SetLog(log *obs.ClientLog) { m.log = log }

// Bind attaches one AP to a pool group and returns its allocation handle.
// The binding's name labels its obs events (core uses the AP's BSSID).
// With ReservePerAP > 0, Bind carves that many addresses off the top of
// the group's primary pool as this binding's exclusive reserve; bindings
// are created in deterministic (site) order, so the carve is too.
func (m *Manager) Bind(name, group string) (*Binding, error) {
	if group == "" {
		group = m.groupDef
	}
	poolNames, ok := m.groups[group]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNoGroup, group)
	}
	b := &Binding{m: m, name: name}
	for _, pn := range poolNames {
		b.pools = append(b.pools, m.pools[pn])
	}
	if m.reserve > 0 {
		carved, err := b.pools[0].carve(m.reserve)
		if err != nil {
			return nil, fmt.Errorf("ipam: binding %q: %w", name, err)
		}
		b.reserve = newPool(b.pools[0].name+"/reserved", carved)
	}
	return b, nil
}

// Stats returns a snapshot of the allocation counters.
func (m *Manager) Stats() Stats { return m.st }

// Status reports every pool's occupancy in declaration order. Bindings'
// reserved carves are not listed separately; their addresses simply no
// longer count toward the parent pool's capacity.
func (m *Manager) Status() []PoolStatus {
	out := make([]PoolStatus, 0, len(m.order))
	for _, name := range m.order {
		p := m.pools[name]
		out = append(out, PoolStatus{Name: name, Capacity: p.capacity(), InUse: p.inUse()})
	}
	return out
}

// emit records one ipam event on the world log (no-op when recording is
// off). The BSSID column carries the binding name so timelines join
// against per-client events; Note carries the pool involved.
func (m *Manager) emit(at sim.Time, kind obs.Kind, binding, pool string, value int64) {
	if m.log == nil {
		return
	}
	m.log.Emit(obs.Event{At: at, Kind: kind, BSSID: binding, Note: pool, Value: value})
}
