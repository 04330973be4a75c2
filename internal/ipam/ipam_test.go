package ipam

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"spider/internal/dot11"
	"spider/internal/ipnet"
	"spider/internal/obs"
	"spider/internal/sim"
)

func addr4(a, b, c, d byte) ipnet.Addr { return ipnet.AddrFrom4(a, b, c, d) }

// TestAddrListPoolOrder: an explicit address-list pool — the plan core
// gives each AP by default — hands out base+1, base+2, ... in list order,
// stable per MAC, and then refuses with typed exhaustion.
func TestAddrListPoolOrder(t *testing.T) {
	base := addr4(10, 0, 0, 1)
	m := MustNew(Config{
		Pools:  []PoolSpec{{Name: "ap", Addrs: []ipnet.Addr{base + 1, base + 2, base + 3}}},
		Groups: []GroupSpec{{Name: "ap", Pools: []string{"ap"}}},
	})
	b, err := m.Bind("gw", "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		a, err := b.Allocate(0, dot11.MAC(uint32(i)), 0)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if want := base + ipnet.Addr(i); a != want {
			t.Fatalf("alloc %d = %s, want %s", i, a, want)
		}
	}
	// Re-allocating for a known MAC returns its existing address.
	if a, err := b.Allocate(0, dot11.MAC(2), 0); err != nil || a != base+2 {
		t.Fatalf("repeat alloc = %s, %v; want %s", a, err, base+2)
	}
	// A fourth client finds nothing: typed exhaustion.
	if _, err := b.Allocate(0, dot11.MAC(9), 0); !errors.Is(err, ErrExhausted) {
		t.Fatalf("exhausted pool returned %v, want ErrExhausted", err)
	}
}

// TestCIDRCarving: a CIDR pool never hands out the network base, the
// broadcast address, or an excluded gateway, and allocates ascending.
func TestCIDRCarving(t *testing.T) {
	cidr := ipnet.MustParsePrefix("192.168.5.0/29") // hosts .1-.6
	gw := addr4(192, 168, 5, 1)
	m := MustNew(Config{
		Pools:  []PoolSpec{{Name: "lan", CIDR: cidr, Exclude: []ipnet.Addr{gw}}},
		Groups: []GroupSpec{{Name: "g", Pools: []string{"lan"}}},
	})
	b, err := m.Bind("ap", "")
	if err != nil {
		t.Fatal(err)
	}
	var got []ipnet.Addr
	for i := 0; ; i++ {
		a, err := b.Allocate(0, dot11.MAC(uint32(1+i)), 0)
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, a)
	}
	want := []ipnet.Addr{
		addr4(192, 168, 5, 2), addr4(192, 168, 5, 3), addr4(192, 168, 5, 4),
		addr4(192, 168, 5, 5), addr4(192, 168, 5, 6),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CIDR allocation order = %v, want %v", got, want)
	}
}

// twoPoolManager builds a primary/backup hierarchy with two addresses in
// each pool.
func twoPoolManager(t *testing.T, reserve int) *Manager {
	t.Helper()
	return MustNew(Config{
		Pools: []PoolSpec{
			{Name: "primary", Addrs: []ipnet.Addr{addr4(172, 16, 0, 1), addr4(172, 16, 0, 2)}},
			{Name: "backup", Addrs: []ipnet.Addr{addr4(172, 17, 0, 1), addr4(172, 17, 0, 2)}},
		},
		Groups:       []GroupSpec{{Name: "seg", Pools: []string{"primary", "backup"}}},
		ReservePerAP: reserve,
	})
}

// TestFailoverOrder: the backup pool serves only once the primary is dry,
// and each backup-served allocation counts as a failover.
func TestFailoverOrder(t *testing.T) {
	m := twoPoolManager(t, 0)
	b, err := m.Bind("ap", "seg")
	if err != nil {
		t.Fatal(err)
	}
	want := []ipnet.Addr{
		addr4(172, 16, 0, 1), addr4(172, 16, 0, 2), // primary first
		addr4(172, 17, 0, 1), addr4(172, 17, 0, 2), // then backup, in order
	}
	for i, w := range want {
		a, err := b.Allocate(0, dot11.MAC(uint32(1+i)), 0)
		if err != nil || a != w {
			t.Fatalf("alloc %d = %s, %v; want %s", i, a, err, w)
		}
	}
	st := m.Stats()
	if st.Failovers != 2 {
		t.Fatalf("Failovers = %d, want 2", st.Failovers)
	}
	if !b.Full() {
		t.Fatal("binding should report Full with both pools dry")
	}
	if _, err := b.Allocate(0, dot11.MAC(99), 0); !errors.Is(err, ErrExhausted) {
		t.Fatalf("got %v, want ErrExhausted", err)
	}
	if m.Stats().Exhausted != 1 {
		t.Fatalf("Exhausted = %d, want 1", m.Stats().Exhausted)
	}
}

// TestReservePerAP: each binding's reserved carve comes off the primary's
// untouched tail in bind order, and survives a neighbour's burst.
func TestReservePerAP(t *testing.T) {
	m := twoPoolManager(t, 1)
	a, err := m.Bind("ap-a", "seg")
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Bind("ap-b", "seg")
	if err != nil {
		t.Fatal(err)
	}
	// ap-a carved 172.16.0.2 (the tail), ap-b carved 172.16.0.1: the
	// shared primary is empty, so shared allocations start in the backup.
	burst := []ipnet.Addr{addr4(172, 17, 0, 1), addr4(172, 17, 0, 2)}
	for i, w := range burst {
		got, err := c.Allocate(0, dot11.MAC(uint32(10+i)), 0)
		if err != nil || got != w {
			t.Fatalf("burst alloc %d = %s, %v; want %s", i, got, err, w)
		}
	}
	// ap-b falls back to its own reserve once the shared pools are dry...
	if got, err := c.Allocate(0, dot11.MAC(20), 0); err != nil || got != addr4(172, 16, 0, 1) {
		t.Fatalf("ap-b reserve alloc = %s, %v", got, err)
	}
	if !c.Full() {
		t.Fatal("ap-b should be Full")
	}
	// ...while ap-a, which allocated nothing, still has its guarantee.
	if a.Full() {
		t.Fatal("ap-a must not be Full: its reserve is untouched")
	}
	if got, err := a.Allocate(0, dot11.MAC(30), 0); err != nil || got != addr4(172, 16, 0, 2) {
		t.Fatalf("ap-a reserve alloc = %s, %v", got, err)
	}
}

// TestAllocateSpecificConflicts: the INIT-REBOOT validation path draws the
// exhaustion/conflict distinction the DHCP server's NAKs are built on.
func TestAllocateSpecificConflicts(t *testing.T) {
	m := twoPoolManager(t, 0)
	b, err := m.Bind("ap", "seg")
	if err != nil {
		t.Fatal(err)
	}
	held, err := b.Allocate(0, dot11.MAC(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Someone else's live address: conflict, never a double-allocation.
	if _, err := b.AllocateSpecific(0, dot11.MAC(2), held, 0); !errors.Is(err, ErrConflict) {
		t.Fatalf("claiming a held address returned %v, want ErrConflict", err)
	}
	// An address outside every pool of the hierarchy: conflict.
	if _, err := b.AllocateSpecific(0, dot11.MAC(2), addr4(203, 0, 113, 7), 0); !errors.Is(err, ErrConflict) {
		t.Fatalf("claiming a foreign address returned %v, want ErrConflict", err)
	}
	// A free member address is claimable (the cached-lease fast path).
	free := addr4(172, 17, 0, 2)
	if got, err := b.AllocateSpecific(0, dot11.MAC(2), free, 0); err != nil || got != free {
		t.Fatalf("claiming a free address = %s, %v", got, err)
	}
	// The holder itself revalidates without error; a different wanted
	// address while holding one is a conflict.
	if got, err := b.AllocateSpecific(0, dot11.MAC(1), held, 0); err != nil || got != held {
		t.Fatalf("revalidation = %s, %v", got, err)
	}
	if _, err := b.AllocateSpecific(0, dot11.MAC(1), free, 0); !errors.Is(err, ErrConflict) {
		t.Fatalf("mismatched revalidation returned %v, want ErrConflict", err)
	}
	if m.Stats().Conflicts != 3 {
		t.Fatalf("Conflicts = %d, want 3", m.Stats().Conflicts)
	}
}

// TestSweepExpired: only unrenewed leases are reclaimed, in ascending
// address order, and the reclaimed addresses become allocatable again.
func TestSweepExpired(t *testing.T) {
	m := twoPoolManager(t, 0)
	b, err := m.Bind("ap", "seg")
	if err != nil {
		t.Fatal(err)
	}
	ttl := sim.Time(10 * time.Second)
	for i := 1; i <= 3; i++ {
		if _, err := b.Allocate(0, dot11.MAC(uint32(i)), ttl); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.NextExpiry(); got != ttl {
		t.Fatalf("NextExpiry = %v, want %v", got, ttl)
	}
	// MAC 2 renews halfway; 1 and 3 vanish.
	half := ttl / 2
	if _, err := b.Allocate(half, dot11.MAC(2), ttl); err != nil {
		t.Fatal(err)
	}
	swept := b.SweepExpired(ttl)
	if len(swept) != 2 {
		t.Fatalf("sweep reclaimed %d leases, want 2", len(swept))
	}
	if swept[0].Addr != addr4(172, 16, 0, 1) || swept[1].Addr != addr4(172, 17, 0, 1) {
		t.Fatalf("sweep order = %v, %v; want ascending addresses", swept[0].Addr, swept[1].Addr)
	}
	if b.LeaseCount() != 1 || !b.HasLease(dot11.MAC(2)) {
		t.Fatal("renewed lease must survive the sweep")
	}
	if got := b.NextExpiry(); got != half+ttl {
		t.Fatalf("NextExpiry after sweep = %v, want %v", got, half+ttl)
	}
	if m.Stats().Reclaimed != 2 {
		t.Fatalf("Reclaimed = %d, want 2", m.Stats().Reclaimed)
	}
	// Reclaimed addresses are allocatable again, primary pool first:
	// failover order outranks free-list recency.
	if got, err := b.Allocate(ttl, dot11.MAC(9), 0); err != nil || got != addr4(172, 16, 0, 1) {
		t.Fatalf("post-sweep alloc = %s, %v", got, err)
	}
}

// TestResetRewindsToVirginOrder: after a full Reset the binding replays
// its original allocation order byte for byte — what keeps AP power
// cycles deterministic.
func TestResetRewindsToVirginOrder(t *testing.T) {
	m := twoPoolManager(t, 1)
	b, err := m.Bind("ap", "seg")
	if err != nil {
		t.Fatal(err)
	}
	sequence := func() []ipnet.Addr {
		var out []ipnet.Addr
		for i := 0; ; i++ {
			a, err := b.Allocate(0, dot11.MAC(uint32(1+i)), 0)
			if err != nil {
				return out
			}
			out = append(out, a)
		}
	}
	first := sequence()
	// Interleave releases to scramble the free lists, then reset.
	b.Release(dot11.MAC(2))
	b.Release(dot11.MAC(1))
	b.Reset()
	if b.LeaseCount() != 0 {
		t.Fatalf("LeaseCount after Reset = %d", b.LeaseCount())
	}
	second := sequence()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("post-reset order %v differs from virgin order %v", second, first)
	}
}

// TestDeterministicReplay: an identical call sequence against two fresh
// managers yields identical addresses at every step — the contract that
// makes scenario address assignment worker-count invariant.
func TestDeterministicReplay(t *testing.T) {
	run := func() []ipnet.Addr {
		m := twoPoolManager(t, 0)
		b, err := m.Bind("ap", "seg")
		if err != nil {
			t.Fatal(err)
		}
		var out []ipnet.Addr
		ttl := sim.Time(time.Second)
		for i := 0; i < 4; i++ {
			a, _ := b.Allocate(sim.Time(i), dot11.MAC(uint32(1+i)), ttl)
			out = append(out, a)
		}
		b.Release(dot11.MAC(3))
		a, _ := b.Allocate(10, dot11.MAC(7), ttl)
		out = append(out, a)
		for _, l := range b.SweepExpired(sim.Time(5 * time.Second)) {
			out = append(out, l.Addr)
		}
		a, _ = b.Allocate(20, dot11.MAC(8), 0)
		out = append(out, a)
		return out
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replay diverged: %v vs %v", first, second)
	}
}

// TestObsWiring: the stats, per-pool occupancy, and the typed event
// stream reflect the allocation lifecycle.
func TestObsWiring(t *testing.T) {
	rec := obs.NewRecorder()
	m := twoPoolManager(t, 0)
	m.SetLog(rec.World())
	b, err := m.Bind("ap", "seg")
	if err != nil {
		t.Fatal(err)
	}
	ttl := sim.Time(time.Second)
	for i := 1; i <= 3; i++ { // third allocation fails over to backup
		if _, err := b.Allocate(0, dot11.MAC(uint32(i)), ttl); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Status()[0]; got.Name != "primary" || got.InUse != 2 {
		t.Fatalf("primary status = %+v before sweep, want 2 in use", got)
	}
	b.SweepExpired(2 * ttl)

	if st := m.Stats(); st.Allocs != 3 || st.Failovers != 1 || st.Reclaimed != 3 {
		t.Fatalf("stats = %+v, want 3 allocs, 1 failover, 3 reclaimed", st)
	}
	if got := m.Status()[0]; got.InUse != 0 {
		t.Fatalf("primary status = %+v after sweep, want 0 in use", got)
	}

	var kinds []obs.Kind
	for _, e := range rec.Events() {
		kinds = append(kinds, e.Kind)
		if e.BSSID != "ap" {
			t.Fatalf("event %v carries binding %q, want ap", e.Kind, e.BSSID)
		}
	}
	want := []obs.Kind{
		obs.KindIPAMAlloc, obs.KindIPAMAlloc, obs.KindIPAMAlloc, obs.KindIPAMFailover,
		obs.KindIPAMGC, obs.KindIPAMGC, // one gc event per touched pool
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
}

// TestConfigValidation: malformed address plans fail construction loudly.
func TestConfigValidation(t *testing.T) {
	pool := PoolSpec{Name: "p", Addrs: []ipnet.Addr{addr4(10, 0, 0, 2)}}
	group := GroupSpec{Name: "g", Pools: []string{"p"}}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no pools", Config{Groups: []GroupSpec{group}}},
		{"no groups", Config{Pools: []PoolSpec{pool}}},
		{"empty pool name", Config{Pools: []PoolSpec{{Addrs: pool.Addrs}}, Groups: []GroupSpec{group}}},
		{"duplicate pool", Config{Pools: []PoolSpec{pool, pool}, Groups: []GroupSpec{group}}},
		{"empty pool", Config{Pools: []PoolSpec{{Name: "p"}}, Groups: []GroupSpec{group}}},
		{"overlapping CIDRs", Config{
			Pools: []PoolSpec{
				{Name: "a", CIDR: ipnet.MustParsePrefix("10.0.0.0/24")},
				{Name: "b", CIDR: ipnet.MustParsePrefix("10.0.0.0/25")},
			},
			Groups: []GroupSpec{{Name: "g", Pools: []string{"a", "b"}}},
		}},
		{"unknown group member", Config{Pools: []PoolSpec{pool},
			Groups: []GroupSpec{{Name: "g", Pools: []string{"nope"}}}}},
		{"empty group", Config{Pools: []PoolSpec{pool},
			Groups: []GroupSpec{{Name: "g"}}}},
		{"bad default group", Config{Pools: []PoolSpec{pool},
			Groups: []GroupSpec{group}, DefaultGroup: "nope"}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: New accepted a malformed config", c.name)
		}
	}
	// Binding to an undeclared group is the remaining runtime error.
	m := MustNew(Config{Pools: []PoolSpec{pool}, Groups: []GroupSpec{group}})
	if _, err := m.Bind("ap", "nope"); !errors.Is(err, ErrNoGroup) {
		t.Fatalf("Bind to unknown group returned %v, want ErrNoGroup", err)
	}
	// A reserve bigger than the primary cannot bind.
	m = MustNew(Config{Pools: []PoolSpec{pool}, Groups: []GroupSpec{group}, ReservePerAP: 5})
	if _, err := m.Bind("ap", "g"); err == nil {
		t.Fatal("Bind with oversized reserve carve did not fail")
	}
}
