package dhcp

import (
	"testing"
	"testing/quick"
	"time"

	"spider/internal/dot11"
	"spider/internal/ipam"
	"spider/internal/ipnet"
	"spider/internal/sim"
)

var gw = ipnet.AddrFrom4(192, 168, 1, 1)

// bindPool binds a server to its own pool of gw+1 … gw+size, through
// ipam.New and Bind as core binds every AP.
func bindPool(gw ipnet.Addr, size int) *ipam.Binding {
	addrs := make([]ipnet.Addr, size)
	for i := range addrs {
		addrs[i] = gw + ipnet.Addr(i+1)
	}
	m := ipam.MustNew(ipam.Config{
		Pools:  []ipam.PoolSpec{{Name: "lan", Addrs: addrs}},
		Groups: []ipam.GroupSpec{{Name: "lan", Pools: []string{"lan"}}},
	})
	b, err := m.Bind(gw.String(), "")
	if err != nil {
		panic(err)
	}
	return b
}

func instantServer(eng *sim.Engine) *Server {
	cfg := DefaultServerConfig(gw)
	cfg.RespDelayMin, cfg.RespDelayMax = 0, 0
	return NewServer(eng, sim.NewRNG(1).Stream("srv"), cfg, bindPool(gw, 64))
}

func TestMessageRoundTrip(t *testing.T) {
	m := Message{Type: Offer, XID: 0xdeadbeef, ClientMAC: dot11.MAC(9),
		YourIP: ipnet.AddrFrom4(192, 168, 1, 5), ServerIP: gw, LeaseSecs: 3600}
	got, err := DecodeMessage(m.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip %+v != %+v", got, m)
	}
}

func TestMessageDecodeErrors(t *testing.T) {
	if _, err := DecodeMessage([]byte{1, 2}); err != ErrShortMessage {
		t.Fatalf("short: %v", err)
	}
	m := Message{Type: Ack}
	if _, err := DecodeMessage(append(m.Bytes(), 0)); err != ErrLongMessage {
		t.Fatalf("trailing byte: %v", err)
	}
	wire := m.Bytes()
	wire[0] = 99
	if _, err := DecodeMessage(wire); err != ErrBadType {
		t.Fatalf("bad type: %v", err)
	}
}

// Property: all message types and fields round-trip.
func TestPropertyMessageRoundTrip(t *testing.T) {
	f := func(typ uint8, xid uint32, mac uint32, yip, sip uint32, lease uint32) bool {
		m := Message{Type: MessageType(typ%5) + 1, XID: xid, ClientMAC: dot11.MAC(mac),
			YourIP: ipnet.Addr(yip), ServerIP: ipnet.Addr(sip), LeaseSecs: lease}
		got, err := DecodeMessage(m.Bytes())
		return err == nil && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestServerStableLeases(t *testing.T) {
	eng := sim.NewEngine()
	s := instantServer(eng)
	var got []Message
	reply := func(m Message) { got = append(got, m) }
	s.Handle(Message{Type: Discover, XID: 1, ClientMAC: dot11.MAC(1)}, reply)
	s.Handle(Message{Type: Discover, XID: 2, ClientMAC: dot11.MAC(2)}, reply)
	s.Handle(Message{Type: Discover, XID: 3, ClientMAC: dot11.MAC(1)}, reply)
	eng.RunAll()
	if len(got) != 3 {
		t.Fatalf("%d replies, want 3", len(got))
	}
	if got[0].YourIP == got[1].YourIP {
		t.Fatal("distinct clients share a lease")
	}
	if got[0].YourIP != got[2].YourIP {
		t.Fatal("same client got different leases")
	}
	if got[0].ServerIP != gw {
		t.Fatalf("server ip = %v", got[0].ServerIP)
	}
}

func TestServerPoolExhaustion(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultServerConfig(gw)
	cfg.RespDelayMin, cfg.RespDelayMax = 0, 0
	s := NewServer(eng, sim.NewRNG(1), cfg, bindPool(gw, 2))
	replies := 0
	for i := uint32(1); i <= 5; i++ {
		s.Handle(Message{Type: Discover, XID: i, ClientMAC: dot11.MAC(i)}, func(Message) { replies++ })
	}
	eng.RunAll()
	if replies != 2 {
		t.Fatalf("replies = %d, want 2 (pool exhausted afterwards)", replies)
	}
}

func TestServerNakOnStaleRequest(t *testing.T) {
	eng := sim.NewEngine()
	s := instantServer(eng)
	var resp Message
	s.Handle(Message{Type: Request, XID: 7, ClientMAC: dot11.MAC(1),
		YourIP: ipnet.AddrFrom4(10, 9, 9, 9)}, func(m Message) { resp = m })
	eng.RunAll()
	if resp.Type != Nak {
		t.Fatalf("response = %v, want nak", resp.Type)
	}
}

func TestServerResponseDelayWithinBounds(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultServerConfig(gw)
	cfg.RespDelayMin = 500 * time.Millisecond
	cfg.RespDelayMax = 2 * time.Second
	s := NewServer(eng, sim.NewRNG(3), cfg, bindPool(gw, 64))
	var at sim.Time = -1
	s.Handle(Message{Type: Discover, XID: 1, ClientMAC: dot11.MAC(1)}, func(Message) { at = eng.Now() })
	eng.RunAll()
	if at < cfg.RespDelayMin || at > cfg.RespDelayMax {
		t.Fatalf("response at %v, want within [%v,%v]", at, cfg.RespDelayMin, cfg.RespDelayMax)
	}
}

func TestServerIgnoresUnknownTypes(t *testing.T) {
	eng := sim.NewEngine()
	s := instantServer(eng)
	called := false
	s.Handle(Message{Type: Offer, XID: 1, ClientMAC: dot11.MAC(1)}, func(Message) { called = true })
	s.Handle(Message{Type: Ack, XID: 2, ClientMAC: dot11.MAC(1)}, func(Message) { called = true })
	eng.RunAll()
	if called {
		t.Fatal("server replied to a server-to-client message")
	}
}

// loopback wires a client directly to a server with a given one-way loss
// probability, returning the client and a result capture.
func loopback(eng *sim.Engine, s *Server, cfg ClientConfig, lossProb float64, seed int64) (*Client, *Lease, *bool, *Client) {
	rng := sim.NewRNG(seed)
	var lease Lease
	var outcome *bool
	result := new(bool)
	var c *Client
	c = NewClient(eng, rng.Stream("cli"), cfg, dot11.MAC(42),
		func(m Message) {
			if rng.Bool(lossProb) {
				return // datagram lost
			}
			s.Handle(m, func(resp Message) {
				if rng.Bool(lossProb) {
					return
				}
				c.Deliver(resp)
			})
		},
		func(l Lease, ok bool) { lease = l; *result = ok; outcome = result })
	_ = outcome
	return c, &lease, result, c
}

func TestClientFullExchange(t *testing.T) {
	eng := sim.NewEngine()
	s := instantServer(eng)
	c, lease, ok, _ := loopback(eng, s, DefaultClientConfig(), 0, 1)
	c.Start(nil)
	eng.RunAll()
	if !*ok {
		t.Fatal("acquisition failed on lossless path")
	}
	if lease.IP.IsUnspecified() || lease.Server != gw {
		t.Fatalf("lease = %+v", lease)
	}
	if c.Active() {
		t.Fatal("client still active after bind")
	}
}

func TestClientCachedLeaseFastPath(t *testing.T) {
	eng := sim.NewEngine()
	s := instantServer(eng)
	// Prime the server lease table.
	c1, lease, ok, _ := loopback(eng, s, DefaultClientConfig(), 0, 1)
	c1.Start(nil)
	eng.RunAll()
	if !*ok {
		t.Fatal("priming failed")
	}
	// Re-join with the cached lease: a single Request/Ack exchange.
	c2, lease2, ok2, _ := loopback(eng, s, DefaultClientConfig(), 0, 2)
	before := s.Offers
	c2.Start(&Lease{IP: lease.IP, Server: lease.Server})
	eng.RunAll()
	if !*ok2 {
		t.Fatal("cached-lease rejoin failed")
	}
	if lease2.IP != lease.IP {
		t.Fatalf("rejoin got %v, want %v", lease2.IP, lease.IP)
	}
	if s.Offers != before {
		t.Fatal("fast path should not trigger an Offer")
	}
}

func TestClientNakFallsBackToDiscover(t *testing.T) {
	eng := sim.NewEngine()
	s := instantServer(eng)
	c, lease, ok, _ := loopback(eng, s, DefaultClientConfig(), 0, 3)
	// A bogus cached lease triggers NAK, then a fresh Discover succeeds.
	c.Start(&Lease{IP: ipnet.AddrFrom4(10, 0, 0, 99), Server: gw})
	eng.RunAll()
	if !*ok {
		t.Fatal("client did not recover from NAK")
	}
	if lease.IP == ipnet.AddrFrom4(10, 0, 0, 99) {
		t.Fatal("client kept the NAKed address")
	}
	if s.Naks != 1 {
		t.Fatalf("naks = %d, want 1", s.Naks)
	}
}

func TestClientFailsWhenServerSilent(t *testing.T) {
	eng := sim.NewEngine()
	s := instantServer(eng)
	cfg := ClientConfig{RetryTimeout: 100 * time.Millisecond, AcquireWindow: time.Second}
	c, _, ok, _ := loopback(eng, s, cfg, 1.0, 4) // 100% loss
	c.Start(nil)
	eng.RunAll()
	if *ok {
		t.Fatal("acquisition succeeded with total loss")
	}
	if got := eng.Now(); got < cfg.AcquireWindow || got > cfg.AcquireWindow+2*cfg.RetryTimeout {
		t.Fatalf("gave up at %v, want ≈%v", got, cfg.AcquireWindow)
	}
	if c.Retransmits < 5 {
		t.Fatalf("retransmits = %d, want several within the window", c.Retransmits)
	}
}

func TestClientRecoversFromModerateLoss(t *testing.T) {
	eng := sim.NewEngine()
	succ := 0
	const n = 100
	for i := 0; i < n; i++ {
		s := instantServer(eng)
		cfg := ClientConfig{RetryTimeout: 100 * time.Millisecond, AcquireWindow: 3 * time.Second}
		c, _, ok, _ := loopback(eng, s, cfg, 0.3, int64(i))
		c.Start(nil)
		eng.RunAll()
		if *ok {
			succ++
		}
	}
	if succ < n*8/10 {
		t.Fatalf("success %d/%d with 30%% loss and 100ms retries, want ≥80%%", succ, n)
	}
}

func TestClientStopSuppressesCallback(t *testing.T) {
	eng := sim.NewEngine()
	s := instantServer(eng)
	fired := false
	var c *Client
	c = NewClient(eng, sim.NewRNG(1), DefaultClientConfig(), dot11.MAC(1),
		func(m Message) { s.Handle(m, func(r Message) { c.Deliver(r) }) },
		func(Lease, bool) { fired = true })
	c.Start(nil)
	c.Stop()
	eng.RunAll()
	if fired {
		t.Fatal("completion callback fired after Stop")
	}
}

func TestClientIgnoresForeignXID(t *testing.T) {
	eng := sim.NewEngine()
	bound := false
	c := NewClient(eng, sim.NewRNG(1), DefaultClientConfig(), dot11.MAC(1),
		func(Message) {}, func(_ Lease, ok bool) { bound = ok })
	c.Start(nil)
	c.Deliver(Message{Type: Ack, XID: 0xbad, ClientMAC: dot11.MAC(1), YourIP: 5, ServerIP: gw})
	if bound {
		t.Fatal("client accepted a response with a foreign XID")
	}
}

func TestClientDoubleStartIgnored(t *testing.T) {
	eng := sim.NewEngine()
	sent := 0
	c := NewClient(eng, sim.NewRNG(1), DefaultClientConfig(), dot11.MAC(1),
		func(Message) { sent++ }, func(Lease, bool) {})
	c.Start(nil)
	c.Start(nil)
	if sent != 1 {
		t.Fatalf("sent = %d, want 1 (second Start ignored while active)", sent)
	}
}

// Property: with a lossless instant path, acquisition always succeeds and
// the lease is always from the server pool.
func TestPropertyLosslessAlwaysBinds(t *testing.T) {
	f := func(seed int64) bool {
		eng := sim.NewEngine()
		s := instantServer(eng)
		c, lease, ok, _ := loopback(eng, s, DefaultClientConfig(), 0, seed)
		c.Start(nil)
		eng.RunAll()
		return *ok && lease.IP > gw && lease.IP <= gw+64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestServerFaultSilent(t *testing.T) {
	eng := sim.NewEngine()
	s := instantServer(eng)
	s.SetFault(FaultSilent)
	called := false
	s.Handle(Message{Type: Discover, XID: 1, ClientMAC: dot11.MAC(1)}, func(Message) { called = true })
	s.Handle(Message{Type: Request, XID: 2, ClientMAC: dot11.MAC(1)}, func(Message) { called = true })
	eng.RunAll()
	if called {
		t.Fatal("silent server replied")
	}
	if s.FaultDrops != 2 {
		t.Fatalf("FaultDrops = %d, want 2", s.FaultDrops)
	}
	s.SetFault(FaultNone)
	var resp Message
	s.Handle(Message{Type: Discover, XID: 3, ClientMAC: dot11.MAC(1)}, func(m Message) { resp = m })
	eng.RunAll()
	if resp.Type != Offer {
		t.Fatalf("after clearing fault, response = %v, want offer", resp.Type)
	}
}

func TestServerFaultNak(t *testing.T) {
	eng := sim.NewEngine()
	s := instantServer(eng)
	s.SetFault(FaultNak)
	var got []Message
	s.Handle(Message{Type: Discover, XID: 1, ClientMAC: dot11.MAC(1)}, func(m Message) { got = append(got, m) })
	s.Handle(Message{Type: Request, XID: 2, ClientMAC: dot11.MAC(1)}, func(m Message) { got = append(got, m) })
	eng.RunAll()
	if len(got) != 2 || got[0].Type != Nak || got[1].Type != Nak {
		t.Fatalf("responses = %v, want two naks", got)
	}
	if s.Naks != 2 {
		t.Fatalf("Naks = %d, want 2", s.Naks)
	}
}

func TestServerFaultExhausted(t *testing.T) {
	eng := sim.NewEngine()
	s := instantServer(eng)
	// Bind one client before the fault lands.
	var bound Message
	s.Handle(Message{Type: Discover, XID: 1, ClientMAC: dot11.MAC(1)}, func(m Message) { bound = m })
	eng.RunAll()
	if bound.Type != Offer {
		t.Fatalf("pre-fault discover got %v", bound.Type)
	}
	s.SetFault(FaultExhausted)
	// New client sees the exhausted pool; Discover is silent, Request NAKs.
	discovered := false
	var naked Message
	s.Handle(Message{Type: Discover, XID: 2, ClientMAC: dot11.MAC(2)}, func(Message) { discovered = true })
	s.Handle(Message{Type: Request, XID: 3, ClientMAC: dot11.MAC(2), YourIP: bound.YourIP}, func(m Message) { naked = m })
	// The already-bound client keeps working.
	var kept Message
	s.Handle(Message{Type: Request, XID: 4, ClientMAC: dot11.MAC(1), YourIP: bound.YourIP}, func(m Message) { kept = m })
	eng.RunAll()
	if discovered {
		t.Fatal("exhausted pool offered a lease")
	}
	if naked.Type != Nak {
		t.Fatalf("exhausted Request got %v, want nak (typed fail-fast)", naked.Type)
	}
	if kept.Type != Ack {
		t.Fatalf("bound client's renewal got %v, want ack", kept.Type)
	}
	if s.PoolExhausted != 2 {
		t.Fatalf("PoolExhausted = %d, want 2", s.PoolExhausted)
	}
}

func TestServerRequestOnRealExhaustionNaks(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultServerConfig(gw)
	cfg.RespDelayMin, cfg.RespDelayMax = 0, 0
	s := NewServer(eng, sim.NewRNG(1), cfg, bindPool(gw, 1))
	var first Message
	s.Handle(Message{Type: Discover, XID: 1, ClientMAC: dot11.MAC(1)}, func(m Message) { first = m })
	eng.RunAll()
	var resp Message
	s.Handle(Message{Type: Request, XID: 2, ClientMAC: dot11.MAC(2), YourIP: first.YourIP}, func(m Message) { resp = m })
	eng.RunAll()
	if resp.Type != Nak {
		t.Fatalf("Request on exhausted pool got %v, want nak", resp.Type)
	}
	// The requested address is held by another client: ipam types this as
	// a conflict, not exhaustion — the caller can tell "someone else has
	// your address" apart from "nothing is free".
	if s.Conflicts != 1 {
		t.Fatalf("Conflicts = %d, want 1", s.Conflicts)
	}
	if s.PoolExhausted != 0 {
		t.Fatalf("PoolExhausted = %d, want 0 (typed as conflict)", s.PoolExhausted)
	}
}

func TestServerReleaseReusesAddress(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultServerConfig(gw)
	cfg.RespDelayMin, cfg.RespDelayMax = 0, 0
	s := NewServer(eng, sim.NewRNG(1), cfg, bindPool(gw, 1))
	var first Message
	s.Handle(Message{Type: Discover, XID: 1, ClientMAC: dot11.MAC(1)}, func(m Message) { first = m })
	eng.RunAll()
	if first.Type != Offer {
		t.Fatalf("first discover got %v", first.Type)
	}
	if s.LeasesInUse() != 1 {
		t.Fatalf("LeasesInUse = %d, want 1", s.LeasesInUse())
	}
	s.Release(dot11.MAC(1))
	if s.LeasesInUse() != 0 {
		t.Fatalf("LeasesInUse after release = %d, want 0", s.LeasesInUse())
	}
	var second Message
	s.Handle(Message{Type: Discover, XID: 2, ClientMAC: dot11.MAC(2)}, func(m Message) { second = m })
	eng.RunAll()
	if second.Type != Offer || second.YourIP != first.YourIP {
		t.Fatalf("released address not reused: first=%v second=%+v", first.YourIP, second)
	}
	// Releasing an unknown MAC is a no-op.
	s.Release(dot11.MAC(99))
	if s.LeasesInUse() != 1 {
		t.Fatalf("LeasesInUse = %d, want 1", s.LeasesInUse())
	}
}

func TestServerReset(t *testing.T) {
	eng := sim.NewEngine()
	s := instantServer(eng)
	s.Handle(Message{Type: Discover, XID: 1, ClientMAC: dot11.MAC(1)}, func(Message) {})
	eng.RunAll()
	s.SetFault(FaultSilent)
	s.Reset()
	if s.LeasesInUse() != 0 {
		t.Fatalf("LeasesInUse after reset = %d, want 0", s.LeasesInUse())
	}
	if s.Fault() != FaultNone {
		t.Fatalf("fault after reset = %v, want none", s.Fault())
	}
	var resp Message
	s.Handle(Message{Type: Discover, XID: 2, ClientMAC: dot11.MAC(2)}, func(m Message) { resp = m })
	eng.RunAll()
	if resp.Type != Offer {
		t.Fatalf("post-reset discover got %v, want offer", resp.Type)
	}
}

func TestFaultModeStrings(t *testing.T) {
	modes := []FaultMode{FaultNone, FaultSilent, FaultNak, FaultExhausted}
	seen := map[string]bool{}
	for _, m := range modes {
		s := m.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Errorf("mode %d has bad string %q", m, s)
		}
		seen[s] = true
	}
}

// expiringServer is instantServer with the sim-time lease GC enabled.
func expiringServer(eng *sim.Engine, leaseSecs uint32) *Server {
	cfg := DefaultServerConfig(gw)
	cfg.RespDelayMin, cfg.RespDelayMax = 0, 0
	cfg.LeaseSecs = leaseSecs
	cfg.ExpireLeases = true
	return NewServer(eng, sim.NewRNG(1).Stream("srv"), cfg, bindPool(gw, 64))
}

// TestServerExpiresUnrenewedLeases: with ExpireLeases on, LeasesInUse
// decays without an explicit Release — exactly at each lease's deadline,
// with renewals pushing their own deadline out. The final RunAll also
// proves the sweep is event-driven: a polling ticker would never let the
// queue drain.
func TestServerExpiresUnrenewedLeases(t *testing.T) {
	eng := sim.NewEngine()
	s := expiringServer(eng, 2)
	var acks []Message
	var reply func(Message)
	reply = func(m Message) {
		switch m.Type {
		case Offer:
			s.Handle(Message{Type: Request, XID: m.XID, ClientMAC: m.ClientMAC, YourIP: m.YourIP}, reply)
		case Ack:
			acks = append(acks, m)
		}
	}
	s.Handle(Message{Type: Discover, XID: 1, ClientMAC: dot11.MAC(1)}, reply)
	s.Handle(Message{Type: Discover, XID: 2, ClientMAC: dot11.MAC(2)}, reply)
	eng.Run(time.Second)
	if len(acks) != 2 || s.LeasesInUse() != 2 {
		t.Fatalf("bound %d acks, %d leases; want 2, 2", len(acks), s.LeasesInUse())
	}
	// Client 1 renews at t=1s; client 2 goes silent and expires at t=2s.
	s.Handle(Message{Type: Request, XID: 3, ClientMAC: dot11.MAC(1), YourIP: acks[0].YourIP}, reply)
	eng.Run(2500 * time.Millisecond)
	if s.LeasesInUse() != 1 {
		t.Fatalf("LeasesInUse = %d at 2.5s, want 1 (client 2 reclaimed)", s.LeasesInUse())
	}
	if !s.HasLease(dot11.MAC(1), acks[0].YourIP) {
		t.Fatal("renewed lease was reclaimed")
	}
	if s.Reclaimed != 1 {
		t.Fatalf("Reclaimed = %d, want 1", s.Reclaimed)
	}
	// The renewed lease runs out at t=3s; the queue then drains entirely.
	eng.RunAll()
	if s.LeasesInUse() != 0 || s.Reclaimed != 2 {
		t.Fatalf("after drain: LeasesInUse = %d, Reclaimed = %d; want 0, 2",
			s.LeasesInUse(), s.Reclaimed)
	}
}

// TestClientCachedLeaseNakAfterReclaim is the INIT-REBOOT regression for
// the live-pool validation path: a cached lease whose address was
// reclaimed and re-issued to another client must get a NAK — never a
// silent double-allocation — and the client must recover with a fresh
// Discover.
func TestClientCachedLeaseNakAfterReclaim(t *testing.T) {
	eng := sim.NewEngine()
	s := expiringServer(eng, 1)
	// Client A (MAC 42 via loopback) binds, then vanishes: its lease is
	// reclaimed one second later and the queue drains.
	cA, leaseA, okA, _ := loopback(eng, s, DefaultClientConfig(), 0, 1)
	cA.Start(nil)
	eng.RunAll()
	if !*okA {
		t.Fatal("priming failed")
	}
	if s.LeasesInUse() != 0 {
		t.Fatalf("LeasesInUse = %d after drain, want 0 (lease reclaimed)", s.LeasesInUse())
	}
	// Client B claims A's old address directly — a legitimate INIT-REBOOT
	// onto a free pool address.
	var bAck *Message
	s.Handle(Message{Type: Request, XID: 7, ClientMAC: dot11.MAC(7), YourIP: leaseA.IP},
		func(m Message) { bAck = &m })
	// Advance just far enough for the instant Ack — a full drain would
	// run past B's own expiry and free the address again.
	eng.Run(eng.Now() + 10*time.Millisecond)
	if bAck == nil || bAck.Type != Ack || bAck.YourIP != leaseA.IP {
		t.Fatalf("B's claim of the reclaimed address got %+v, want ack", bAck)
	}
	// A returns with its stale cached lease: the server must NAK (typed
	// as a conflict), and A falls back to Discover for a fresh address.
	cA2, leaseA2, okA2, _ := loopback(eng, s, DefaultClientConfig(), 0, 2)
	naksBefore, conflictsBefore := s.Naks, s.Conflicts
	cA2.Start(&Lease{IP: leaseA.IP, Server: leaseA.Server})
	eng.Run(eng.Now() + 500*time.Millisecond) // rebind + fresh acquisition, before B expires
	if !*okA2 {
		t.Fatal("A did not recover from the NAK")
	}
	if s.Naks != naksBefore+1 {
		t.Fatalf("Naks = %d, want %d", s.Naks, naksBefore+1)
	}
	if s.Conflicts != conflictsBefore+1 {
		t.Fatalf("Conflicts = %d, want %d (stale rebind is a typed conflict)", s.Conflicts, conflictsBefore+1)
	}
	if leaseA2.IP == leaseA.IP {
		t.Fatal("A kept an address the server had re-issued to B")
	}
	if !s.HasLease(dot11.MAC(7), leaseA.IP) {
		t.Fatal("B lost its lease to A's stale rebind")
	}
}
