package lmm

import (
	"testing"
	"time"

	"spider/internal/ap"
	"spider/internal/dhcp"
	"spider/internal/dot11"
	"spider/internal/driver"
	"spider/internal/geo"
	"spider/internal/ipam"
	"spider/internal/ipnet"
	"spider/internal/phy"
	"spider/internal/sim"
)

// bindPool binds an AP to its own pool of gw+1 … gw+size, through
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

type rig struct {
	eng    *sim.Engine
	medium *phy.Medium
	drv    *driver.Driver
	m      *LMM
	ups    []*Link
	downs  []*Link
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	r := &rig{eng: eng, medium: phy.NewMedium(eng, sim.NewRNG(21).Stream("phy"))}
	for ch := dot11.Channel(1); ch <= 14; ch++ {
		r.medium.SetChannelNoise(ch, 0.05)
	}
	dcfg := driver.Config{NumVIFs: 4, LLTimeout: 100 * time.Millisecond}
	r.drv = driver.New(eng, sim.NewRNG(22), r.medium, dot11.MAC(1), func() geo.Point { return geo.Point{} }, 0, dcfg)
	r.m = New(eng, sim.NewRNG(23), r.drv, cfg)
	r.m.OnLinkUp = func(l *Link) { r.ups = append(r.ups, l) }
	r.m.OnLinkDown = func(l *Link) { r.downs = append(r.downs, l) }
	return r
}

func (r *rig) addAP(ch dot11.Channel, id uint32, open bool) *ap.AP {
	gw := ipnet.AddrFrom4(10, byte(id), 0, 1)
	cfg := ap.DefaultConfig("net", ch, gw)
	cfg.IPAM = bindPool(cfg.Gateway, 64)
	cfg.Open = open
	cfg.MgmtDelayMin, cfg.MgmtDelayMax = 2*time.Millisecond, 10*time.Millisecond
	cfg.DHCP.RespDelayMin, cfg.DHCP.RespDelayMax = 50*time.Millisecond, 200*time.Millisecond
	return ap.New(r.eng, sim.NewRNG(int64(100+id)), r.medium, geo.Point{X: 20}, dot11.MAC(1000+id), cfg, nil)
}

func (r *rig) run(d sim.Time) { r.eng.Run(r.eng.Now() + d) }

func ch1Sched() []driver.Slot { return []driver.Slot{{Channel: dot11.Channel1}} }

func TestEndToEndJoin(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched()})
	a := r.addAP(dot11.Channel1, 1, true)
	r.run(10 * time.Second)
	if len(r.ups) != 1 {
		t.Fatalf("links up = %d, want 1", len(r.ups))
	}
	l := r.ups[0]
	if l.BSSID != a.BSSID() || l.Lease.IP.IsUnspecified() || !l.Up() {
		t.Fatalf("link = %+v", l)
	}
	st := r.m.Stats()
	if st.JoinsComplete != 1 || st.JoinsStarted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	joins := r.m.Joins()
	if len(joins) != 1 || joins[0].Stage != StageComplete {
		t.Fatalf("joins = %+v", joins)
	}
	if joins[0].AssocDur <= 0 || joins[0].DHCPDur <= 0 || joins[0].TotalDur < joins[0].AssocDur+joins[0].DHCPDur {
		t.Fatalf("durations inconsistent: %+v", joins[0])
	}
	if u, seen := r.m.Utility(a.BSSID()); !seen || u != vc {
		t.Fatalf("utility = %v seen=%v", u, seen)
	}
}

func TestMultiAPSameChannel(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched()})
	r.addAP(dot11.Channel1, 1, true)
	r.addAP(dot11.Channel1, 2, true)
	r.run(15 * time.Second)
	if len(r.m.ActiveLinks()) != 2 {
		t.Fatalf("active links = %d, want 2 (concurrent same-channel APs)", len(r.m.ActiveLinks()))
	}
}

func TestSingleAPMode(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), SingleAP: true})
	r.addAP(dot11.Channel1, 1, true)
	r.addAP(dot11.Channel1, 2, true)
	r.run(15 * time.Second)
	if got := len(r.m.ActiveLinks()); got != 1 {
		t.Fatalf("active links = %d, want 1 in SingleAP mode", got)
	}
}

func TestOffScheduleChannelIgnored(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched()})
	r.addAP(dot11.Channel6, 1, true)
	r.run(10 * time.Second)
	if len(r.ups) != 0 {
		t.Fatal("joined an AP on an unscheduled channel")
	}
	if r.m.Stats().JoinsStarted != 0 {
		t.Fatal("join attempted on unscheduled channel")
	}
}

func TestClosedAPNotSelected(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched()})
	r.addAP(dot11.Channel1, 1, false)
	r.run(10 * time.Second)
	if r.m.Stats().JoinsStarted != 0 {
		t.Fatal("LMM tried to join a closed AP")
	}
}

func TestUtilityDemotesFailingAP(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), FailureBackoff: 2 * time.Second})
	// The "zombie" AP beacons as open but its management plane is too slow
	// to complete a join inside the window.
	gw := ipnet.AddrFrom4(10, 7, 0, 1)
	cfg := ap.DefaultConfig("zombie", dot11.Channel1, gw)
	cfg.IPAM = bindPool(cfg.Gateway, 64)
	cfg.MgmtDelayMin, cfg.MgmtDelayMax = 10*time.Second, 11*time.Second
	zombie := ap.New(r.eng, sim.NewRNG(300), r.medium, geo.Point{X: 20}, dot11.MAC(2000), cfg, nil)
	r.run(12 * time.Second)
	if r.m.Stats().AssocFailures == 0 {
		t.Fatal("no association failures recorded against the zombie AP")
	}
	if u, seen := r.m.Utility(zombie.BSSID()); !seen || u > 0.3 {
		t.Fatalf("zombie utility = %v (seen=%v), want demoted toward 0", u, seen)
	}
	// A healthy AP appearing later is preferred and joins promptly.
	good := r.addAP(dot11.Channel1, 9, true)
	r.run(10 * time.Second)
	found := false
	for _, l := range r.m.ActiveLinks() {
		if l.BSSID == good.BSSID() {
			found = true
		}
	}
	if !found {
		t.Fatal("healthy AP not joined after zombie demotion")
	}
}

func TestLivenessDropsDeadLink(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), PingFailLimit: 10})
	a := r.addAP(dot11.Channel1, 1, true)
	r.run(10 * time.Second)
	if len(r.ups) != 1 {
		t.Fatalf("links up = %d", len(r.ups))
	}
	a.Close()
	r.run(10 * time.Second)
	if len(r.downs) != 1 {
		t.Fatalf("links down = %d, want 1 after AP death", len(r.downs))
	}
	if r.m.Stats().LinksDropped != 1 {
		t.Fatalf("LinksDropped = %d", r.m.Stats().LinksDropped)
	}
	if len(r.m.ActiveLinks()) != 0 {
		t.Fatal("dead link still active")
	}
}

func TestLeaseCacheFastRejoin(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), PingFailLimit: 10, FailureBackoff: time.Second, UseLeaseCache: true})
	a := r.addAP(dot11.Channel1, 1, true)
	r.run(10 * time.Second)
	if len(r.ups) != 1 {
		t.Fatal("initial join failed")
	}
	firstDHCP := r.m.Joins()[0].DHCPDur
	// Kill and resurrect the AP with identical identity.
	a.Close()
	r.run(5 * time.Second)
	if len(r.downs) != 1 {
		t.Fatal("link did not drop")
	}
	r.addAP(dot11.Channel1, 1, true)
	r.run(15 * time.Second)
	if len(r.ups) < 2 {
		t.Fatalf("rejoin did not complete: ups=%d", len(r.ups))
	}
	if r.m.Stats().CacheHits == 0 {
		t.Fatal("lease cache never used on rejoin")
	}
	joins := r.m.Joins()
	last := joins[len(joins)-1]
	if !last.UsedCache {
		t.Fatalf("last join did not use the cache: %+v", last)
	}
	if last.DHCPDur >= firstDHCP {
		t.Fatalf("cached DHCP %v not faster than full exchange %v", last.DHCPDur, firstDHCP)
	}
}

func TestSetScheduleTearsDownOffChannelLinks(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched()})
	r.addAP(dot11.Channel1, 1, true)
	r.run(10 * time.Second)
	if len(r.m.ActiveLinks()) != 1 {
		t.Fatal("no link to tear down")
	}
	r.m.SetSchedule([]driver.Slot{{Channel: dot11.Channel6}})
	r.run(time.Second)
	if len(r.m.ActiveLinks()) != 0 {
		t.Fatal("link survived schedule change off its channel")
	}
	if len(r.downs) != 1 {
		t.Fatalf("downs = %d", len(r.downs))
	}
}

func TestLinkCarriesApplicationTraffic(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched()})
	var uplinked []ipnet.Packet
	gw := ipnet.AddrFrom4(10, 1, 0, 1)
	cfg := ap.DefaultConfig("net", dot11.Channel1, gw)
	cfg.IPAM = bindPool(cfg.Gateway, 64)
	cfg.MgmtDelayMin, cfg.MgmtDelayMax = 2*time.Millisecond, 10*time.Millisecond
	cfg.DHCP.RespDelayMin, cfg.DHCP.RespDelayMax = 50*time.Millisecond, 100*time.Millisecond
	a := ap.New(r.eng, sim.NewRNG(101), r.medium, geo.Point{X: 20}, dot11.MAC(1001), cfg,
		func(p ipnet.Packet) { uplinked = append(uplinked, p) })
	r.run(10 * time.Second)
	if len(r.ups) != 1 {
		t.Fatal("no link")
	}
	l := r.ups[0]
	var got []ipnet.Packet
	l.OnPacket = func(p ipnet.Packet) { got = append(got, p) }
	remote := ipnet.AddrFrom4(93, 184, 216, 34)
	l.Send(ipnet.Packet{Proto: ipnet.ProtoTCP, TTL: 64, Src: l.Lease.IP, Dst: remote, TCP: ipnet.TCP{Payload: 5}})
	r.run(time.Second)
	if len(uplinked) != 1 || uplinked[0].Dst != remote {
		t.Fatalf("uplink saw %v", uplinked)
	}
	// Reply path.
	a.FromInternet(ipnet.Packet{Proto: ipnet.ProtoTCP, TTL: 64, Src: remote, Dst: l.Lease.IP, TCP: ipnet.TCP{Payload: 6}})
	r.run(time.Second)
	if len(got) != 1 || got[0].Src != remote {
		t.Fatalf("application packets = %v", got)
	}
}

func TestBackoffPreventsThrashing(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), FailureBackoff: 30 * time.Second})
	// Zombie AP that never completes joins.
	gw := ipnet.AddrFrom4(10, 7, 0, 1)
	cfg := ap.DefaultConfig("zombie", dot11.Channel1, gw)
	cfg.IPAM = bindPool(cfg.Gateway, 64)
	cfg.MgmtDelayMin, cfg.MgmtDelayMax = 10*time.Second, 11*time.Second
	ap.New(r.eng, sim.NewRNG(300), r.medium, geo.Point{X: 20}, dot11.MAC(2000), cfg, nil)
	r.run(20 * time.Second)
	// One failed join (2s window), then a 30s backoff: no second attempt.
	if got := r.m.Stats().JoinsStarted; got != 1 {
		t.Fatalf("joins started = %d, want 1 (backoff)", got)
	}
}

func TestCaptivePortalDetectedByE2ETest(t *testing.T) {
	// With TestTarget set to a remote host, a captive AP (gateway answers,
	// WAN blocked) must fail the connectivity test and score vb, not come
	// up as a link.
	eng := sim.NewEngine()
	medium := phy.NewMedium(eng, sim.NewRNG(21).Stream("phy"))
	for ch := dot11.Channel(1); ch <= 14; ch++ {
		medium.SetChannelNoise(ch, 0.05)
	}
	dcfg := driver.Config{NumVIFs: 2, LLTimeout: 100 * time.Millisecond}
	drv := driver.New(eng, sim.NewRNG(22), medium, dot11.MAC(1), func() geo.Point { return geo.Point{} }, 0, dcfg)
	remote := ipnet.AddrFrom4(198, 18, 0, 1)
	cfg := Config{Schedule: ch1Sched(), TestTarget: remote}
	m := New(eng, sim.NewRNG(23), drv, cfg)
	ups := 0
	m.OnLinkUp = func(*Link) { ups++ }

	gw := ipnet.AddrFrom4(10, 1, 0, 1)
	apCfg := ap.DefaultConfig("portal", dot11.Channel1, gw)
	apCfg.IPAM = bindPool(apCfg.Gateway, 64)
	apCfg.BlockWAN = true
	apCfg.MgmtDelayMin, apCfg.MgmtDelayMax = 2*time.Millisecond, 10*time.Millisecond
	apCfg.DHCP.RespDelayMin, apCfg.DHCP.RespDelayMax = 50*time.Millisecond, 100*time.Millisecond
	ap.New(eng, sim.NewRNG(101), medium, geo.Point{X: 20}, dot11.MAC(1001), apCfg, nil)
	eng.Run(30 * time.Second)

	if ups != 0 {
		t.Fatal("captive portal passed the end-to-end connectivity test")
	}
	if m.Stats().PingFailures == 0 {
		t.Fatal("no ping-stage failures recorded")
	}
	if u, seen := m.Utility(dot11.MAC(1001)); !seen || u < 0.3 || u > 0.9 {
		t.Fatalf("captive AP utility = %v (seen=%v), want mid-range vb score", u, seen)
	}
}

func TestRSSIOnlySelectionIgnoresUtility(t *testing.T) {
	// Two APs: a nearer one with terrible join history and a farther good
	// one. Utility ranking picks the good one; RSSI-only picks the near one.
	pick := func(rssiOnly bool) dot11.MACAddr {
		eng := sim.NewEngine()
		medium := phy.NewMedium(eng, sim.NewRNG(5).Stream("phy"))
		dcfg := driver.Config{NumVIFs: 1, LLTimeout: 100 * time.Millisecond}
		drv := driver.New(eng, sim.NewRNG(6), medium, dot11.MAC(1), func() geo.Point { return geo.Point{} }, 0, dcfg)
		cfg := Config{Schedule: ch1Sched(), SingleAP: true, SelectByRSSIOnly: rssiOnly}
		m := New(eng, sim.NewRNG(7), drv, cfg)
		// Pre-poison the near AP's history.
		near, far := dot11.MAC(1001), dot11.MAC(1002)
		m.scoreJoin(near, StageAssocFailed)
		var first dot11.MACAddr
		m.OnLinkUp = func(l *Link) {
			if first == (dot11.MACAddr{}) {
				first = l.BSSID
			}
		}
		mk := func(mac dot11.MACAddr, x float64, id uint32) {
			gw := ipnet.AddrFrom4(10, byte(id), 0, 1)
			c := ap.DefaultConfig("n", dot11.Channel1, gw)
			c.IPAM = bindPool(c.Gateway, 64)
			c.MgmtDelayMin, c.MgmtDelayMax = 2*time.Millisecond, 5*time.Millisecond
			c.DHCP.RespDelayMin, c.DHCP.RespDelayMax = 20*time.Millisecond, 50*time.Millisecond
			ap.New(eng, sim.NewRNG(int64(50+id)), medium, geo.Point{X: x}, mac, c, nil)
		}
		mk(near, 10, 1)
		mk(far, 40, 2)
		eng.Run(20 * time.Second)
		return first
	}
	if got := pick(false); got != dot11.MAC(1002) {
		t.Fatalf("utility ranking picked %v, want the good far AP", got)
	}
	if got := pick(true); got != dot11.MAC(1001) {
		t.Fatalf("RSSI-only picked %v, want the near AP regardless of history", got)
	}
}

func TestGlobalDHCPBackoffStallsEverything(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), FailureBackoff: 30 * time.Second, GlobalDHCPBackoff: true,
		DHCP: dhcp.ClientConfig{RetryTimeout: 200 * time.Millisecond, AcquireWindow: time.Second}})
	// An AP whose DHCP never answers, plus a healthy AP.
	gw := ipnet.AddrFrom4(10, 7, 0, 1)
	cfg := ap.DefaultConfig("dead-dhcp", dot11.Channel1, gw)
	cfg.IPAM = bindPool(cfg.Gateway, 64)
	cfg.MgmtDelayMin, cfg.MgmtDelayMax = 2*time.Millisecond, 5*time.Millisecond
	cfg.DHCP.RespDelayMin, cfg.DHCP.RespDelayMax = 2*time.Minute, 4*time.Minute
	ap.New(r.eng, sim.NewRNG(300), r.medium, geo.Point{X: 10}, dot11.MAC(2000), cfg, nil)
	r.run(8 * time.Second)
	if r.m.Stats().DHCPFailures == 0 {
		t.Fatal("dead DHCP server never failed a join")
	}
	// Healthy AP appears, but the global backoff must hold all joins.
	r.addAP(dot11.Channel1, 9, true)
	started := r.m.Stats().JoinsStarted
	r.run(10 * time.Second)
	if r.m.Stats().JoinsStarted != started {
		t.Fatal("joins started during the global DHCP backoff")
	}
}

func TestExponentialBackoffGrowsAndCaps(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), FailureBackoff: 8 * time.Second,
		DHCP: dhcp.ClientConfig{RetryTimeout: 300 * time.Millisecond, AcquireWindow: time.Second}})
	// An AP whose DHCP server never answers: association succeeds but
	// every join deterministically fails at the DHCP stage.
	zombie := r.addAP(dot11.Channel1, 1, true)
	zombie.SetDHCPFault(dhcp.FaultSilent)

	var embargoes []sim.Time
	streakSeen := 0
	for i := 0; i < 4; i++ {
		prev := r.m.Stats().DHCPFailures
		for r.m.Stats().DHCPFailures == prev {
			r.run(time.Second)
			if r.eng.Now() > 10*time.Minute {
				t.Fatalf("no join failure %d after 10 minutes", i)
			}
		}
		streak, until := r.m.blacklist[zombie.BSSID()].streak, r.m.backoffUntil[zombie.BSSID()]
		if streak != i+1 {
			t.Fatalf("streak after failure %d = %d, want %d", i, streak, i+1)
		}
		streakSeen = streak
		embargoes = append(embargoes, until-r.eng.Now())
	}
	// Embargoes grow 2× per failure until the 60 s cap: 8s, 16s, 32s, 60s.
	for i, want := range []sim.Time{8 * time.Second, 16 * time.Second, 32 * time.Second, maxBackoff} {
		got := embargoes[i]
		// Allow the polling loop's 1s granularity on the lower bound.
		if got > want || got < want-time.Second {
			t.Fatalf("embargo %d = %v, want ≈%v (grew %v)", i, got, want, embargoes)
		}
	}
	if streakSeen != 4 {
		t.Fatalf("final streak = %d", streakSeen)
	}
}

func TestBackoffStreakDecays(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), FailureBackoff: time.Second})
	bssid := dot11.MAC(2000)
	r.m.noteFailure(bssid)
	r.m.noteFailure(bssid)
	if streak := r.m.blacklist[bssid].streak; streak != 2 {
		t.Fatalf("streak = %d, want 2", streak)
	}
	// A failure within twice the cap extends the streak.
	r.run(2*maxBackoff - time.Second)
	r.m.noteFailure(bssid)
	if streak := r.m.blacklist[bssid].streak; streak != 3 {
		t.Fatalf("streak = %d, want 3", streak)
	}
	// After twice the cap with no failures, the next failure starts fresh.
	r.run(2*maxBackoff + time.Second)
	r.m.noteFailure(bssid)
	streak, until := r.m.blacklist[bssid].streak, r.m.backoffUntil[bssid]
	if streak != 1 {
		t.Fatalf("post-decay streak = %d, want 1", streak)
	}
	if embargo := until - r.eng.Now(); embargo != time.Second {
		t.Fatalf("post-decay embargo = %v, want the base backoff", embargo)
	}
}

// TestBackoffCapRaisedToFailureBackoff: a base backoff longer than the
// 60 s cap is the cap, so every failure blocks the AP for exactly that
// long.
func TestBackoffCapRaisedToFailureBackoff(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), FailureBackoff: 90 * time.Second})
	bssid := dot11.MAC(2000)
	for i := 1; i <= 3; i++ {
		r.m.noteFailure(bssid)
		if streak, until := r.m.blacklist[bssid].streak, r.m.backoffUntil[bssid]; streak != i || until-r.eng.Now() != 90*time.Second {
			t.Fatalf("failure %d: streak %d, embargo %v, want %d and 90s", i, streak, until-r.eng.Now(), i)
		}
	}
}

func TestSuccessClearsBlacklist(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), FailureBackoff: time.Second})
	a := r.addAP(dot11.Channel1, 1, true)
	r.m.noteFailure(a.BSSID()) // pretend a past failure
	r.run(10 * time.Second)
	if len(r.ups) != 1 {
		t.Fatal("join did not complete")
	}
	if e := r.m.blacklist[a.BSSID()]; e != nil {
		t.Fatalf("streak = %d after successful join, want none", e.streak)
	}
}

// leaseRig builds a rig whose single AP hands out leases of the given
// duration, for renewal tests.
func leaseRig(t *testing.T, leaseSecs uint32, cfg Config) (*rig, *ap.AP) {
	t.Helper()
	r := newRig(t, cfg)
	gw := ipnet.AddrFrom4(10, 1, 0, 1)
	acfg := ap.DefaultConfig("net", dot11.Channel1, gw)
	acfg.IPAM = bindPool(acfg.Gateway, 64)
	acfg.MgmtDelayMin, acfg.MgmtDelayMax = 2*time.Millisecond, 10*time.Millisecond
	acfg.DHCP.RespDelayMin, acfg.DHCP.RespDelayMax = 50*time.Millisecond, 200*time.Millisecond
	acfg.DHCP.LeaseSecs = leaseSecs
	a := ap.New(r.eng, sim.NewRNG(101), r.medium, geo.Point{X: 20}, dot11.MAC(1001), acfg, nil)
	return r, a
}

func TestLeaseRenewalKeepsLinkUp(t *testing.T) {
	r, _ := leaseRig(t, 8, Config{Schedule: ch1Sched()})
	r.run(10 * time.Second)
	if len(r.ups) != 1 {
		t.Fatal("join did not complete")
	}
	// An 8s lease renews at ~4s. Run long enough for several cycles.
	r.run(30 * time.Second)
	st := r.m.Stats()
	if st.LeaseRenewals < 3 {
		t.Fatalf("LeaseRenewals = %d, want several over 30s with an 8s lease", st.LeaseRenewals)
	}
	if st.RenewalFails != 0 {
		t.Fatalf("RenewalFails = %d, want 0 against a healthy server", st.RenewalFails)
	}
	if len(r.downs) != 0 || len(r.m.ActiveLinks()) != 1 {
		t.Fatalf("link flapped: downs=%d active=%d", len(r.downs), len(r.m.ActiveLinks()))
	}
}

func TestRenewalFailureDemotesLink(t *testing.T) {
	r, a := leaseRig(t, 8, Config{Schedule: ch1Sched(),
		FailureBackoff: time.Minute, // keep the link from instantly rejoining
		DHCP:           dhcp.ClientConfig{RetryTimeout: 300 * time.Millisecond, AcquireWindow: 1500 * time.Millisecond}})
	r.run(10 * time.Second)
	if len(r.ups) != 1 {
		t.Fatal("join did not complete")
	}
	// The DHCP server goes silent before the ~4s renewal fires.
	a.SetDHCPFault(dhcp.FaultSilent)
	r.run(20 * time.Second)
	st := r.m.Stats()
	if st.RenewalFails == 0 {
		t.Fatal("renewal against a silent server never failed")
	}
	if len(r.downs) == 0 {
		t.Fatal("failed renewal did not demote the link")
	}
}

func TestRecoveryAfterAPCrashReboot(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), PingFailLimit: 5, FailureBackoff: time.Second})
	a := r.addAP(dot11.Channel1, 1, true)
	r.run(10 * time.Second)
	if len(r.ups) != 1 {
		t.Fatal("initial join failed")
	}
	a.Crash()
	r.run(10 * time.Second)
	if len(r.downs) != 1 {
		t.Fatalf("downs = %d, want 1 after crash (liveness teardown)", len(r.downs))
	}
	a.Reboot()
	rebootAt := r.eng.Now()
	for len(r.ups) < 2 && r.eng.Now()-rebootAt < 60*time.Second {
		r.run(time.Second)
	}
	if len(r.ups) < 2 {
		t.Fatal("link did not recover within 60s of the reboot")
	}
	if recovery := r.eng.Now() - rebootAt; recovery > 30*time.Second {
		t.Fatalf("recovery took %v, want bounded well under 30s", recovery)
	}
	if len(r.m.ActiveLinks()) != 1 {
		t.Fatal("recovered link not active")
	}
}

// TestNumActiveLinksMatchesActiveLinks holds the link count to the list it
// stands in for across every way a link comes and goes: joins, a
// ping-timeout drop, an alloc-steer teardown, and a schedule change that
// aborts a live link and a join in flight. The hooks check at each
// transition and a 10 ms ticker checks in between.
func TestNumActiveLinksMatchesActiveLinks(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), PingFailLimit: 10, FailureBackoff: time.Second})
	check := func(when string) {
		t.Helper()
		if got, want := r.m.NumActiveLinks(), len(r.m.ActiveLinks()); got != want {
			t.Fatalf("%s at %v: NumActiveLinks = %d, len(ActiveLinks) = %d", when, r.eng.Now(), got, want)
		}
	}
	causes := map[string]int{}
	r.m.OnLinkUp = func(l *Link) { r.ups = append(r.ups, l); check("link up") }
	r.m.OnLinkDown = func(l *Link) { causes[l.DownCause]++; check("link down (" + l.DownCause + ")") }
	r.eng.Ticker(10*time.Millisecond, func() { check("tick") })
	inFlight := func() bool {
		for _, c := range r.m.conns {
			if c.state != connIdle && c.state != connUp {
				return true
			}
		}
		return false
	}

	a := r.addAP(dot11.Channel1, 1, true)
	r.addAP(dot11.Channel1, 2, true)
	r.run(15 * time.Second)
	if n := r.m.NumActiveLinks(); n != 2 {
		t.Fatalf("links up after the joins = %d, want 2", n)
	}

	a.Close()
	r.run(10 * time.Second)
	if causes["ping-timeout"] != 1 {
		t.Fatalf("down causes after the AP died = %v, want one ping-timeout", causes)
	}

	// Pin an AP that is not on air yet: once it shows up, steering tears
	// the other link down.
	r.m.SetAllocTarget(dot11.MAC(1003))
	r.run(time.Second)
	target := r.addAP(dot11.Channel1, 3, true)
	r.run(10 * time.Second)
	if causes["alloc-steer"] == 0 || !r.m.inUse[target.BSSID()] {
		t.Fatalf("steer to %v: down causes %v, target in use %v", target.BSSID(), causes, r.m.inUse[target.BSSID()])
	}
	r.m.SetAllocTarget(dot11.MACAddr{})

	// A zombie AP never answers association, so joins to it stay in flight
	// for the 2 s join window.
	zcfg := ap.DefaultConfig("zombie", dot11.Channel1, ipnet.AddrFrom4(10, 9, 0, 1))
	zcfg.IPAM = bindPool(zcfg.Gateway, 64)
	zcfg.MgmtDelayMin, zcfg.MgmtDelayMax = 10*time.Second, 11*time.Second
	ap.New(r.eng, sim.NewRNG(309), r.medium, geo.Point{X: 20}, dot11.MAC(2009), zcfg, nil)
	for i := 0; !inFlight(); i++ {
		if i == 300 {
			t.Fatal("no join in flight within 30 s")
		}
		r.run(100 * time.Millisecond)
	}
	if r.m.NumActiveLinks() == 0 {
		t.Fatal("no live link to abort")
	}
	r.m.SetSchedule([]driver.Slot{{Channel: dot11.Channel6}})
	check("SetSchedule")
	if r.m.NumActiveLinks() != 0 || inFlight() || causes["schedule-change"] == 0 {
		t.Fatalf("after the schedule change: %d links, in flight %v, down causes %v",
			r.m.NumActiveLinks(), inFlight(), causes)
	}

	r.m.SetSchedule(ch1Sched())
	r.run(15 * time.Second)
	if r.m.NumActiveLinks() == 0 {
		t.Fatal("no link came back on channel 1")
	}
}

// TestConnTestRetryDoesNotOutliveItsJoin brings a link up, tears it down
// at once and lets the same conn reach its next conn test within one
// pingTimeout of the first test's last ping, whose retry is then still
// pending. The second test gets no replies, so it must send its 10 pings
// one pingTimeout apart and fail 10 pingTimeouts after it began; a retry
// left over from the first test would fire into it and reach the cap
// about twice as fast.
func TestConnTestRetryDoesNotOutliveItsJoin(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), SingleAP: true, UseLeaseCache: true, FailureBackoff: 1})
	r.addAP(dot11.Channel1, 1, true)
	c := r.m.conns[0]
	var upAt sim.Time
	r.m.OnLinkUp = func(l *Link) {
		if upAt != 0 {
			return
		}
		upAt = r.eng.Now()
		r.eng.Schedule(0, func() {
			l.DownCause = "test"
			l.conn.down(true)
		})
	}
	for c.state != connIdle || upAt == 0 {
		r.run(time.Millisecond)
	}
	for c.state != connAssoc {
		r.run(time.Millisecond)
	}
	// The second join's conn test hears no replies.
	c.vif.OnPacket = func(p ipnet.Packet) {
		if p.Proto != ipnet.ProtoICMP {
			c.onPacket(p)
		}
	}
	for c.state != connPing {
		r.run(time.Millisecond)
	}
	if r.eng.Now()-upAt >= pingTimeout {
		t.Fatalf("second conn test began %v after the first link came up, want under %v", r.eng.Now()-upAt, pingTimeout)
	}
	r.run(10 * time.Second)
	joins := r.m.Joins()
	if len(joins) < 2 || joins[1].Stage != StagePingFailed {
		t.Fatalf("joins = %+v, want the second to fail its conn test", joins)
	}
	j := joins[1]
	if test := j.TotalDur - j.AssocDur - j.DHCPDur; test != 10*pingTimeout {
		t.Fatalf("second conn test lasted %v, want 10 × %v", test, pingTimeout)
	}
}
