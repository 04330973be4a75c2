package driver

import (
	"testing"
	"time"

	"spider/internal/ap"
	"spider/internal/dhcp"
	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/ipam"
	"spider/internal/ipnet"
	"spider/internal/obs"
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
	drv    *Driver
	aps    []*ap.AP
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	r := &rig{eng: eng, medium: phy.NewMedium(eng, sim.NewRNG(11).Stream("phy"))}
	r.drv = New(eng, sim.NewRNG(12), r.medium, dot11.MAC(1), func() geo.Point { return geo.Point{} }, 0, cfg)
	return r
}

// addAP places an open AP at the origin on ch with fast management and
// DHCP responses.
func (r *rig) addAP(ch dot11.Channel, id uint32) *ap.AP {
	gw := ipnet.AddrFrom4(10, byte(id), 0, 1)
	cfg := ap.DefaultConfig("net", ch, gw)
	cfg.IPAM = bindPool(cfg.Gateway, 64)
	cfg.MgmtDelayMin, cfg.MgmtDelayMax = time.Millisecond, 2*time.Millisecond
	cfg.DHCP.RespDelayMin, cfg.DHCP.RespDelayMax = 5*time.Millisecond, 10*time.Millisecond
	a := ap.New(r.eng, sim.NewRNG(int64(100+id)), r.medium, geo.Point{X: 20}, dot11.MAC(1000+id), cfg, nil)
	r.aps = append(r.aps, a)
	return a
}

func (r *rig) run(d sim.Time) { r.eng.Run(r.eng.Now() + d) }

func TestPassiveScan(t *testing.T) {
	r := newRig(t, Config{ProbeInterval: -1}) // passive only (negative disables ticker)
	r.addAP(dot11.Channel1, 1)
	r.addAP(dot11.Channel6, 2) // other channel: must not appear
	r.drv.SetSchedule([]Slot{{Channel: dot11.Channel1}})
	r.run(time.Second)
	entries := r.drv.ScanTable()
	if len(entries) != 1 {
		t.Fatalf("scan entries = %d, want 1 (only current channel audible)", len(entries))
	}
	e := entries[0]
	if e.Channel != dot11.Channel1 || e.SSID != "net" || !e.Open {
		t.Fatalf("entry = %+v", e)
	}
	if e.RSSI >= 0 {
		t.Fatalf("rssi = %v", e.RSSI)
	}
}

func TestActiveProbing(t *testing.T) {
	r := newRig(t, Config{ProbeInterval: 200 * time.Millisecond})
	r.addAP(dot11.Channel1, 1)
	r.drv.SetSchedule([]Slot{{Channel: dot11.Channel1}})
	r.run(time.Second)
	if r.drv.Stats().ProbesSent < 3 {
		t.Fatalf("probes sent = %d", r.drv.Stats().ProbesSent)
	}
}

func TestScanEntryExpiry(t *testing.T) {
	r := newRig(t, Config{})
	a := r.addAP(dot11.Channel1, 1)
	r.drv.SetSchedule([]Slot{{Channel: dot11.Channel1}})
	r.run(500 * time.Millisecond)
	if len(r.drv.ScanTable()) != 1 {
		t.Fatal("AP not discovered")
	}
	a.Close()
	r.run(scanEntryTTL - time.Second)
	if len(r.drv.ScanTable()) != 1 {
		t.Fatal("scan entry aged out before its TTL")
	}
	r.run(2 * time.Second)
	if len(r.drv.ScanTable()) != 0 {
		t.Fatal("stale scan entry survived TTL")
	}
}

func joinVIF(t *testing.T, r *rig, v *VIF, bssid dot11.MACAddr, ch dot11.Channel, within sim.Time) bool {
	t.Helper()
	var result *bool
	v.OnJoinResult = func(ok bool) { result = &ok }
	v.Associate(bssid, ch)
	deadline := r.eng.Now() + within
	for result == nil && r.eng.Now() < deadline {
		r.run(50 * time.Millisecond)
	}
	return result != nil && *result
}

func TestSingleChannelJoin(t *testing.T) {
	r := newRig(t, Config{})
	a := r.addAP(dot11.Channel6, 1)
	r.drv.SetSchedule([]Slot{{Channel: dot11.Channel6}})
	r.run(100 * time.Millisecond)
	v := r.drv.VIFs()[0]
	if !joinVIF(t, r, v, a.BSSID(), dot11.Channel6, 5*time.Second) {
		t.Fatal("join failed on dedicated channel")
	}
	if v.state != vifAssociated || v.bssid != a.BSSID() {
		t.Fatalf("vif state: %v bssid=%v", v.state, v.bssid)
	}
	if a.Stats().Associations != 1 {
		t.Fatalf("AP associations = %d", a.Stats().Associations)
	}
}

func TestJoinToClosedAPFails(t *testing.T) {
	r := newRig(t, Config{})
	eng := r.eng
	gw := ipnet.AddrFrom4(10, 9, 0, 1)
	cfg := ap.DefaultConfig("locked", dot11.Channel6, gw)
	cfg.IPAM = bindPool(cfg.Gateway, 64)
	cfg.Open = false
	cfg.MgmtDelayMin, cfg.MgmtDelayMax = time.Millisecond, 2*time.Millisecond
	closed := ap.New(eng, sim.NewRNG(55), r.medium, geo.Point{X: 20}, dot11.MAC(999), cfg, nil)
	r.drv.SetSchedule([]Slot{{Channel: dot11.Channel6}})
	r.run(100 * time.Millisecond)
	if joinVIF(t, r, r.drv.VIFs()[0], closed.BSSID(), dot11.Channel6, 5*time.Second) {
		t.Fatal("join to closed AP succeeded")
	}
	if r.drv.VIFs()[0].state == vifAssociated {
		t.Fatal("vif associated after rejection")
	}
}

func TestJoinWindowExpiry(t *testing.T) {
	r := newRig(t, Config{LLTimeout: 100 * time.Millisecond})
	// No AP at all: join must fail after the window.
	r.drv.SetSchedule([]Slot{{Channel: dot11.Channel6}})
	r.run(100 * time.Millisecond)
	v := r.drv.VIFs()[0]
	start := r.eng.Now()
	if joinVIF(t, r, v, dot11.MAC(404), dot11.Channel6, 5*time.Second) {
		t.Fatal("join to absent AP succeeded")
	}
	if gone := r.eng.Now() - start; gone < joinWindow || gone > joinWindow+time.Second {
		t.Fatalf("join failed after %v, want ≈%v window", gone, joinWindow)
	}
	if v.AuthAttempts < 5 {
		t.Fatalf("auth attempts = %d, want several at 100ms spacing", v.AuthAttempts)
	}
}

func TestAssociateBusyVIFPanics(t *testing.T) {
	r := newRig(t, Config{})
	v := r.drv.VIFs()[0]
	v.Associate(dot11.MAC(5), dot11.Channel1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Associate did not panic")
		}
	}()
	v.Associate(dot11.MAC(6), dot11.Channel1)
}

func TestScheduleCycling(t *testing.T) {
	rec := obs.NewRecorder()
	r := newRig(t, Config{Events: rec.Client(0)})
	r.drv.SetSchedule([]Slot{
		{Channel: dot11.Channel1, Duration: 100 * time.Millisecond},
		{Channel: dot11.Channel6, Duration: 100 * time.Millisecond},
		{Channel: dot11.Channel11, Duration: 100 * time.Millisecond},
	})
	r.run(2 * time.Second)
	rec.CloseOpenSpans(r.eng.Now())
	// Each arrival on a channel opens an occupancy span; the first span is
	// the one New opens before any schedule.
	visits := map[dot11.Channel]int{}
	for _, s := range rec.Spans()[1:] {
		if s.Name == "occupancy" {
			visits[dot11.Channel(s.Channel)]++
		}
	}
	// Each full cycle is ~315 ms (3 dwells + 3 switches); expect ≈6 cycles.
	for _, ch := range dot11.OrthogonalChannels {
		if visits[ch] < 4 {
			t.Fatalf("channel %v visited %d times, want ≥4 (visits=%v)", ch, visits[ch], visits)
		}
	}
	if r.drv.Stats().Switches < 12 {
		t.Fatalf("switches = %d", r.drv.Stats().Switches)
	}
}

func TestSameChannelAdjacentSlotsNoSwitch(t *testing.T) {
	r := newRig(t, Config{})
	r.drv.SetSchedule([]Slot{
		{Channel: dot11.Channel1, Duration: 100 * time.Millisecond},
		{Channel: dot11.Channel1, Duration: 100 * time.Millisecond},
	})
	r.run(time.Second)
	if got := r.drv.Stats().Switches; got > 1 {
		t.Fatalf("switches = %d for same-channel schedule, want ≤1", got)
	}
}

func TestScheduleValidation(t *testing.T) {
	r := newRig(t, Config{})
	for _, slots := range [][]Slot{
		nil,
		{{Channel: 0}},
		{{Channel: dot11.Channel1, Duration: 0}, {Channel: dot11.Channel6, Duration: time.Millisecond}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetSchedule(%v) did not panic", slots)
				}
			}()
			r.drv.SetSchedule(slots)
		}()
	}
}

// dhcpOverVIF runs a DHCP acquisition over the virtual interface.
func dhcpOverVIF(t *testing.T, r *rig, v *VIF) dhcp.Lease {
	t.Helper()
	cli := dhcp.NewClient(r.eng, sim.NewRNG(31), dhcp.ReducedClientConfig(100*time.Millisecond), r.drv.MAC(),
		func(m dhcp.Message) {
			u := ipnet.UDP{SrcPort: ipnet.PortDHCPClient, DstPort: ipnet.PortDHCPServer, Payload: m.Bytes()}
			v.SendPacket(ipnet.Packet{Proto: ipnet.ProtoUDP, TTL: 64, Src: ipnet.Unspecified, Dst: ipnet.BroadcastAddr, UDP: u})
		}, func(l dhcp.Lease, ok bool) {
			if !ok {
				t.Fatal("dhcp over vif failed")
			}
		})
	var lease dhcp.Lease
	v.OnPacket = func(p ipnet.Packet) {
		if p.Proto != ipnet.ProtoUDP || p.UDP.DstPort != ipnet.PortDHCPClient {
			return
		}
		if m, err := dhcp.DecodeMessage(p.UDP.Payload); err == nil {
			cli.Deliver(m)
			if m.Type == dhcp.Ack {
				lease = dhcp.Lease{IP: m.YourIP, Server: m.ServerIP}
			}
		}
	}
	cli.Start(nil)
	deadline := r.eng.Now() + 10*time.Second
	for lease.IP.IsUnspecified() && r.eng.Now() < deadline {
		r.run(100 * time.Millisecond)
	}
	if lease.IP.IsUnspecified() {
		t.Fatal("no lease over vif")
	}
	return lease
}

func TestPSMBufferingAcrossSwitch(t *testing.T) {
	r := newRig(t, Config{})
	a := r.addAP(dot11.Channel1, 1)
	r.drv.SetSchedule([]Slot{{Channel: dot11.Channel1}})
	r.run(100 * time.Millisecond)
	v := r.drv.VIFs()[0]
	if !joinVIF(t, r, v, a.BSSID(), dot11.Channel1, 5*time.Second) {
		t.Fatal("join failed")
	}
	lease := dhcpOverVIF(t, r, v)

	var got []ipnet.Packet
	v.OnPacket = func(p ipnet.Packet) { got = append(got, p) }

	// Put the driver on a two-channel schedule so it leaves channel 1.
	r.drv.SetSchedule([]Slot{
		{Channel: dot11.Channel1, Duration: 200 * time.Millisecond},
		{Channel: dot11.Channel6, Duration: 200 * time.Millisecond},
	})
	// Wait until the driver is dwelling on channel 6, then push packets.
	for r.drv.CurrentChannel() != dot11.Channel6 || r.drv.switching {
		r.run(10 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		a.FromInternet(ipnet.Packet{Proto: ipnet.ProtoTCP, TTL: 64, Src: ipnet.AddrFrom4(1, 1, 1, 1), Dst: lease.IP, TCP: ipnet.TCP{Payload: 1}})
	}
	r.run(150 * time.Millisecond) // packets cross the backhaul while client away
	if len(got) != 0 {
		t.Fatalf("%d packets leaked while off channel", len(got))
	}
	if _, psm, _, buffered := a.StationState(r.drv.MAC()); !psm || buffered == 0 {
		t.Fatalf("AP state psm=%v buffered=%d, want buffering", psm, buffered)
	}
	// After the driver returns and polls, the buffer must flush.
	r.run(500 * time.Millisecond)
	if len(got) != 5 {
		t.Fatalf("delivered %d packets after return, want 5", len(got))
	}
}

func TestPerChannelTxQueueFlushesOnReturn(t *testing.T) {
	r := newRig(t, Config{})
	a := r.addAP(dot11.Channel1, 1)
	r.drv.SetSchedule([]Slot{{Channel: dot11.Channel1}})
	r.run(100 * time.Millisecond)
	v := r.drv.VIFs()[0]
	if !joinVIF(t, r, v, a.BSSID(), dot11.Channel1, 5*time.Second) {
		t.Fatal("join failed")
	}
	lease := dhcpOverVIF(t, r, v)
	r.drv.SetSchedule([]Slot{
		{Channel: dot11.Channel1, Duration: 200 * time.Millisecond},
		{Channel: dot11.Channel6, Duration: 200 * time.Millisecond},
	})
	for r.drv.CurrentChannel() != dot11.Channel6 || r.drv.switching {
		r.run(10 * time.Millisecond)
	}
	// Transmit while away: must be queued, not lost.
	before := a.Stats().UplinkPackets
	v.SendPacket(ipnet.Packet{Proto: ipnet.ProtoTCP, TTL: 64, Src: lease.IP, Dst: ipnet.AddrFrom4(8, 8, 8, 8)})
	if r.drv.Stats().TxQueued != 1 {
		t.Fatalf("TxQueued = %d, want 1", r.drv.Stats().TxQueued)
	}
	r.run(500 * time.Millisecond)
	if a.Stats().UplinkPackets != before+1 {
		t.Fatalf("uplink packets = %d, want %d", a.Stats().UplinkPackets, before+1)
	}
}

func TestTxQueueCap(t *testing.T) {
	r := newRig(t, Config{})
	a := r.addAP(dot11.Channel1, 1)
	r.drv.SetSchedule([]Slot{{Channel: dot11.Channel1}})
	r.run(100 * time.Millisecond)
	v := r.drv.VIFs()[0]
	if !joinVIF(t, r, v, a.BSSID(), dot11.Channel1, 5*time.Second) {
		t.Fatal("join failed")
	}
	r.drv.SetSchedule([]Slot{
		{Channel: dot11.Channel1, Duration: 100 * time.Millisecond},
		{Channel: dot11.Channel6, Duration: 100 * time.Millisecond},
	})
	for r.drv.CurrentChannel() != dot11.Channel6 || r.drv.switching {
		r.run(10 * time.Millisecond)
	}
	for i := 0; i < txQueueLimit+7; i++ {
		v.SendPacket(ipnet.Packet{Proto: ipnet.ProtoTCP})
	}
	st := r.drv.Stats()
	if st.TxQueued != txQueueLimit || st.TxQueueDrops != 7 {
		t.Fatalf("queued=%d drops=%d, want %d/7", st.TxQueued, st.TxQueueDrops, txQueueLimit)
	}
}

func TestDisassociateInformsAP(t *testing.T) {
	r := newRig(t, Config{})
	a := r.addAP(dot11.Channel1, 1)
	r.drv.SetSchedule([]Slot{{Channel: dot11.Channel1}})
	r.run(100 * time.Millisecond)
	v := r.drv.VIFs()[0]
	if !joinVIF(t, r, v, a.BSSID(), dot11.Channel1, 5*time.Second) {
		t.Fatal("join failed")
	}
	v.Disassociate()
	r.run(100 * time.Millisecond)
	if assoc, _, _, _ := a.StationState(r.drv.MAC()); assoc {
		t.Fatal("AP still associated after deauth")
	}
	if v.state != vifIdle {
		t.Fatal("vif not reset")
	}
}

func TestFractionalScheduleDegradesJoin(t *testing.T) {
	// With 25% of a 400 ms period on the AP's channel and a lossy medium,
	// joins take longer than with 100%: run several trials and compare
	// mean completion times.
	mean := func(frac float64, seed int64) sim.Time {
		eng := sim.NewEngine()
		medium := phy.NewMedium(eng, sim.NewRNG(seed).Stream("phy"))
		for ch := dot11.Channel(1); ch <= 14; ch++ {
			medium.SetChannelNoise(ch, 0.1)
		}
		drv := New(eng, sim.NewRNG(seed+1), medium, dot11.MAC(1), func() geo.Point { return geo.Point{} }, 0, Config{})
		gw := ipnet.AddrFrom4(10, 1, 0, 1)
		apCfg := ap.DefaultConfig("net", dot11.Channel6, gw)
		apCfg.IPAM = bindPool(apCfg.Gateway, 64)
		apCfg.MgmtDelayMin, apCfg.MgmtDelayMax = 5*time.Millisecond, 50*time.Millisecond
		access := ap.New(eng, sim.NewRNG(seed+2), medium, geo.Point{X: 20}, dot11.MAC(1000), apCfg, nil)
		period := 400 * time.Millisecond
		on := sim.Time(float64(period) * frac)
		if frac >= 1 {
			drv.SetSchedule([]Slot{{Channel: dot11.Channel6}})
		} else {
			drv.SetSchedule([]Slot{
				{Channel: dot11.Channel6, Duration: on},
				{Channel: dot11.Channel1, Duration: period - on},
			})
		}
		eng.Run(100 * time.Millisecond)
		var total sim.Time
		n := 0
		for trial := 0; trial < 20; trial++ {
			v := drv.VIFs()[0]
			start := eng.Now()
			var result *bool
			v.OnJoinResult = func(ok bool) { result = &ok }
			v.Associate(access.BSSID(), dot11.Channel6)
			for result == nil {
				eng.Run(eng.Now() + 10*time.Millisecond)
			}
			if *result {
				total += eng.Now() - start
				n++
			}
			eng.Run(eng.Now() + 50*time.Millisecond)
			v.Disassociate()
			eng.Run(eng.Now() + 50*time.Millisecond)
		}
		if n == 0 {
			return sim.Infinity
		}
		return total / sim.Time(n)
	}
	full := mean(1.0, 1)
	quarter := mean(0.25, 1)
	if quarter <= full {
		t.Fatalf("fractional schedule join mean %v <= dedicated %v", quarter, full)
	}
}

func TestOpportunisticScanAcrossRotation(t *testing.T) {
	// Rotating across three channels must discover APs on all of them
	// without any dedicated scan phase.
	r := newRig(t, Config{})
	r.addAP(dot11.Channel1, 1)
	r.addAP(dot11.Channel6, 2)
	r.addAP(dot11.Channel11, 3)
	r.drv.SetSchedule([]Slot{
		{Channel: dot11.Channel1, Duration: 150 * time.Millisecond},
		{Channel: dot11.Channel6, Duration: 150 * time.Millisecond},
		{Channel: dot11.Channel11, Duration: 150 * time.Millisecond},
	})
	r.run(3 * time.Second)
	seen := map[dot11.Channel]bool{}
	for _, e := range r.drv.ScanTable() {
		seen[e.Channel] = true
	}
	for _, ch := range dot11.OrthogonalChannels {
		if !seen[ch] {
			t.Fatalf("channel %v never discovered during rotation (seen=%v)", ch, seen)
		}
	}
}

func TestSendPacketOnIdleVIFDropped(t *testing.T) {
	r := newRig(t, Config{})
	v := r.drv.VIFs()[0]
	v.SendPacket(ipnet.Packet{Proto: ipnet.ProtoTCP}) // must not panic or queue
	if r.drv.Stats().TxQueued != 0 {
		t.Fatal("idle vif queued a packet")
	}
}

func TestAccessors(t *testing.T) {
	r := newRig(t, Config{})
	sched := []Slot{
		{Channel: dot11.Channel1, Duration: 100 * time.Millisecond},
		{Channel: dot11.Channel6, Duration: 100 * time.Millisecond},
		{Channel: dot11.Channel1, Duration: 50 * time.Millisecond},
	}
	r.drv.SetSchedule(sched)
	if got := r.drv.schedule; len(got) != 3 || got[2].Duration != 50*time.Millisecond {
		t.Fatalf("schedule = %v", got)
	}
	// SetSchedule keeps its own copy.
	sched[0].Channel = dot11.Channel11
	if r.drv.schedule[0].Channel != dot11.Channel1 {
		t.Fatal("SetSchedule kept the caller's slice")
	}
	if r.drv.MAC() != dot11.MAC(1) {
		t.Fatalf("MAC() = %v", r.drv.MAC())
	}
}

func TestSwitchTimeAccounting(t *testing.T) {
	r := newRig(t, Config{})
	r.drv.SetSchedule([]Slot{
		{Channel: dot11.Channel1, Duration: 100 * time.Millisecond},
		{Channel: dot11.Channel6, Duration: 100 * time.Millisecond},
	})
	r.run(2 * time.Second)
	st := r.drv.Stats()
	if st.Switches == 0 {
		t.Fatal("no switches")
	}
	want := sim.Time(st.Switches) * 5 * time.Millisecond
	if got := r.drv.SwitchTime(); got != want {
		t.Fatalf("SwitchTime = %v, want %v", got, want)
	}
}

func TestTxAirtimeGrowsWithTraffic(t *testing.T) {
	r := newRig(t, Config{ProbeInterval: 100 * time.Millisecond})
	r.addAP(dot11.Channel1, 1)
	r.drv.SetSchedule([]Slot{{Channel: dot11.Channel1}})
	before := r.drv.TxAirtime()
	r.run(2 * time.Second)
	if got := r.drv.TxAirtime(); got <= before {
		t.Fatalf("TxAirtime did not grow: %v", got)
	}
}
