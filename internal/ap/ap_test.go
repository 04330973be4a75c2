package ap

import (
	"testing"
	"time"

	"spider/internal/dhcp"
	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/ipam"
	"spider/internal/ipnet"
	"spider/internal/phy"
	"spider/internal/sim"
)

var gw = ipnet.AddrFrom4(10, 0, 0, 1)

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

type world struct {
	eng    *sim.Engine
	medium *phy.Medium
	ap     *AP
	uplink []ipnet.Packet
}

func newWorld(t *testing.T, open bool) *world {
	t.Helper()
	eng := sim.NewEngine()
	params := phy.Defaults()
	params.Loss = func(float64) float64 { return 0 }
	w := &world{eng: eng, medium: phy.NewMedium(eng, sim.NewRNG(1).Stream("phy"), params)}
	cfg := DefaultConfig("testnet", dot11.Channel6, gw)
	cfg.Open = open
	cfg.MgmtDelayMin, cfg.MgmtDelayMax = time.Millisecond, 2*time.Millisecond
	cfg.DHCP.RespDelayMin, cfg.DHCP.RespDelayMax = 10*time.Millisecond, 20*time.Millisecond
	cfg.PSMBufferLimit = 10
	cfg.IPAM = bindPool(gw, 64)
	w.ap = New(eng, sim.NewRNG(2), w.medium, geo.Point{}, dot11.MAC(1000), cfg,
		func(p ipnet.Packet) { w.uplink = append(w.uplink, p) })
	return w
}

// client is a bare station for driving the AP directly.
type client struct {
	radio *phy.Radio
	got   []dot11.Frame
}

func (w *world) newClient(mac dot11.MACAddr) *client {
	c := &client{}
	c.radio = w.medium.NewRadio(mac, func() geo.Point { return geo.Point{X: 10} }, 0)
	c.radio.SetChannel(dot11.Channel6, nil)
	c.radio.SetReceiver(func(f *dot11.Frame, _ phy.RxInfo) { c.got = append(c.got, *f) })
	// Let the channel switch (hardware reset) complete before the test
	// transmits anything.
	w.eng.Run(w.eng.Now() + 10*time.Millisecond)
	return c
}

func (c *client) frames(ft dot11.FrameType) []dot11.Frame {
	var out []dot11.Frame
	for _, f := range c.got {
		if f.Type == ft {
			out = append(out, f)
		}
	}
	return out
}

func (c *client) send(f dot11.Frame) { c.radio.Send(f, nil) }

func (c *client) join(w *world, t *testing.T) {
	t.Helper()
	bssid := w.ap.BSSID()
	c.send(dot11.Frame{Type: dot11.TypeAuth, Addr1: bssid, Addr3: bssid, Body: (&dot11.AuthBody{SeqNum: 1}).AppendTo(nil)})
	w.eng.Run(w.eng.Now() + 100*time.Millisecond)
	c.send(dot11.Frame{Type: dot11.TypeAssocReq, Addr1: bssid, Addr3: bssid})
	w.eng.Run(w.eng.Now() + 100*time.Millisecond)
	if assoc, _, _, _ := w.ap.StationState(c.radio.MAC()); !assoc {
		t.Fatal("association failed")
	}
}

// dhcpJoin completes association plus a full DHCP exchange and returns the
// bound address.
func (c *client) dhcpJoin(w *world, t *testing.T) ipnet.Addr {
	t.Helper()
	c.join(w, t)
	msg := dhcp.Message{Type: dhcp.Discover, XID: 77, ClientMAC: c.radio.MAC()}
	c.sendDHCP(w, msg)
	w.eng.Run(w.eng.Now() + time.Second)
	offer := c.findDHCP(t, dhcp.Offer)
	req := dhcp.Message{Type: dhcp.Request, XID: 77, ClientMAC: c.radio.MAC(), YourIP: offer.YourIP, ServerIP: offer.ServerIP}
	c.sendDHCP(w, req)
	w.eng.Run(w.eng.Now() + time.Second)
	ack := c.findDHCP(t, dhcp.Ack)
	return ack.YourIP
}

func (c *client) sendDHCP(w *world, m dhcp.Message) {
	u := ipnet.UDP{SrcPort: ipnet.PortDHCPClient, DstPort: ipnet.PortDHCPServer, Payload: m.Bytes()}
	pkt := ipnet.Packet{Proto: ipnet.ProtoUDP, TTL: 64, Src: ipnet.Unspecified, Dst: ipnet.BroadcastAddr, UDP: u}
	c.send(dot11.Frame{Type: dot11.TypeData, Addr1: w.ap.BSSID(), Addr3: w.ap.BSSID(), Packet: pkt})
}

func (c *client) findDHCP(t *testing.T, want dhcp.MessageType) dhcp.Message {
	t.Helper()
	for _, f := range c.frames(dot11.TypeData) {
		if f.Packet.Proto != ipnet.ProtoUDP || f.Packet.UDP.DstPort != ipnet.PortDHCPClient {
			continue
		}
		m, err := dhcp.DecodeMessage(f.Packet.UDP.Payload)
		if err == nil && m.Type == want {
			return m
		}
	}
	t.Fatalf("no DHCP %v received", want)
	return dhcp.Message{}
}

func TestBeaconing(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	w.eng.Run(time.Second)
	beacons := c.frames(dot11.TypeBeacon)
	if len(beacons) < 8 || len(beacons) > 11 {
		t.Fatalf("got %d beacons in 1s, want ≈10", len(beacons))
	}
	body, err := dot11.DecodeBeaconBody(beacons[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if body.SSID != "testnet" || body.Capabilities != 0 {
		t.Fatalf("beacon body = %+v", body)
	}
}

func TestClosedAPAdvertisesPrivacy(t *testing.T) {
	w := newWorld(t, false)
	c := w.newClient(dot11.MAC(1))
	w.eng.Run(300 * time.Millisecond)
	bs := c.frames(dot11.TypeBeacon)
	if len(bs) == 0 {
		t.Fatal("no beacons")
	}
	body, _ := dot11.DecodeBeaconBody(bs[0].Body)
	if body.Capabilities&CapPrivacy == 0 {
		t.Fatal("closed AP missing privacy bit")
	}
}

func TestProbeResponse(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	c.send(dot11.Frame{Type: dot11.TypeProbeReq, Addr1: dot11.Broadcast})
	w.eng.Run(100 * time.Millisecond)
	prs := c.frames(dot11.TypeProbeResp)
	if len(prs) != 1 {
		t.Fatalf("probe responses = %d, want 1", len(prs))
	}
	if prs[0].Addr1 != dot11.MAC(1) {
		t.Fatal("probe response not unicast to requester")
	}
}

func TestJoinHandshake(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	c.join(w, t)
	ar := c.frames(dot11.TypeAssocResp)
	if len(ar) != 1 {
		t.Fatalf("assoc responses = %d", len(ar))
	}
	body, err := dot11.DecodeAssocRespBody(ar[0].Body)
	if err != nil || body.Status != 0 || body.AID == 0 {
		t.Fatalf("assoc body = %+v, err=%v", body, err)
	}
	if w.ap.Stats().Associations != 1 {
		t.Fatalf("associations = %d", w.ap.Stats().Associations)
	}
}

func TestClosedAPRejectsAuth(t *testing.T) {
	w := newWorld(t, false)
	c := w.newClient(dot11.MAC(1))
	bssid := w.ap.BSSID()
	c.send(dot11.Frame{Type: dot11.TypeAuth, Addr1: bssid, Addr3: bssid, Body: (&dot11.AuthBody{SeqNum: 1}).AppendTo(nil)})
	w.eng.Run(100 * time.Millisecond)
	ars := c.frames(dot11.TypeAuthResp)
	if len(ars) != 1 {
		t.Fatalf("auth responses = %d", len(ars))
	}
	body, _ := dot11.DecodeAuthBody(ars[0].Body)
	if body.Status == 0 {
		t.Fatal("closed AP accepted auth")
	}
	if w.ap.Stats().AuthRejects != 1 {
		t.Fatal("AuthRejects not counted")
	}
}

func TestAssocWithoutAuthRejected(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	bssid := w.ap.BSSID()
	c.send(dot11.Frame{Type: dot11.TypeAssocReq, Addr1: bssid, Addr3: bssid})
	w.eng.Run(100 * time.Millisecond)
	ar := c.frames(dot11.TypeAssocResp)
	if len(ar) != 1 {
		t.Fatalf("assoc responses = %d", len(ar))
	}
	body, _ := dot11.DecodeAssocRespBody(ar[0].Body)
	if body.Status == 0 {
		t.Fatal("assoc before auth accepted")
	}
}

func TestDHCPThroughAP(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	ip := c.dhcpJoin(w, t)
	if ip.IsUnspecified() {
		t.Fatal("no address bound")
	}
	if _, _, lease, _ := w.ap.StationState(dot11.MAC(1)); !lease {
		t.Fatal("AP did not record the lease")
	}
}

func TestGatewayPing(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	ip := c.dhcpJoin(w, t)
	ping := ipnet.EchoRequestPacket(ip, gw, 1, 1)
	c.send(dot11.Frame{Type: dot11.TypeData, Addr1: w.ap.BSSID(), Addr3: w.ap.BSSID(), Packet: ping})
	w.eng.Run(w.eng.Now() + 100*time.Millisecond)
	found := false
	for _, f := range c.frames(dot11.TypeData) {
		if pkt := f.Packet; pkt.Proto == ipnet.ProtoICMP && pkt.Echo.Type == ipnet.ICMPEchoReply && pkt.Dst == ip {
			found = true
		}
	}
	if !found {
		t.Fatal("no echo reply from gateway")
	}
	if w.ap.Stats().PingsAnswered != 1 {
		t.Fatalf("PingsAnswered = %d", w.ap.Stats().PingsAnswered)
	}
}

func TestUplinkForwarding(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	ip := c.dhcpJoin(w, t)
	remote := ipnet.AddrFrom4(203, 0, 113, 1)
	pkt := ipnet.Packet{Proto: ipnet.ProtoTCP, TTL: 64, Src: ip, Dst: remote, TCP: ipnet.TCP{Payload: 2}}
	c.send(dot11.Frame{Type: dot11.TypeData, Addr1: w.ap.BSSID(), Addr3: w.ap.BSSID(), Packet: pkt})
	w.eng.Run(w.eng.Now() + 2*time.Second)
	if len(w.uplink) != 1 {
		t.Fatalf("uplink packets = %d, want 1", len(w.uplink))
	}
	if w.uplink[0].Dst != remote || w.uplink[0].Src != ip {
		t.Fatalf("uplinked %+v", w.uplink[0])
	}
}

func TestDownlinkToStation(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	ip := c.dhcpJoin(w, t)
	before := len(c.frames(dot11.TypeData))
	w.ap.FromInternet(ipnet.Packet{Proto: ipnet.ProtoTCP, TTL: 64, Src: ipnet.AddrFrom4(1, 1, 1, 1), Dst: ip, TCP: ipnet.TCP{Payload: 4}})
	w.eng.Run(w.eng.Now() + 2*time.Second)
	if got := len(c.frames(dot11.TypeData)); got != before+1 {
		t.Fatalf("station data frames = %d, want %d", got, before+1)
	}
}

func TestDownlinkUnknownIPDropped(t *testing.T) {
	w := newWorld(t, true)
	w.ap.FromInternet(ipnet.Packet{Proto: ipnet.ProtoTCP, Dst: ipnet.AddrFrom4(9, 9, 9, 9)})
	w.eng.Run(w.eng.Now() + 2*time.Second) // must not panic, nothing delivered
	if w.ap.Stats().DownPackets != 1 {
		t.Fatal("down packet not counted")
	}
}

func TestPSMBuffersDataAfterLease(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	ip := c.dhcpJoin(w, t)
	// Enter PSM.
	c.send(dot11.Frame{Type: dot11.TypeNullData, Addr1: w.ap.BSSID(), Addr3: w.ap.BSSID(), PowerMgmt: true})
	w.eng.Run(w.eng.Now() + 50*time.Millisecond)
	before := len(c.frames(dot11.TypeData))
	for i := 0; i < 5; i++ {
		w.ap.FromInternet(ipnet.Packet{Proto: ipnet.ProtoTCP, Dst: ip, TCP: ipnet.TCP{Payload: 1}})
	}
	w.eng.Run(w.eng.Now() + 200*time.Millisecond)
	if got := len(c.frames(dot11.TypeData)); got != before {
		t.Fatalf("frames delivered during PSM: %d", got-before)
	}
	if _, psm, _, buffered := w.ap.StationState(dot11.MAC(1)); !psm || buffered != 5 {
		t.Fatalf("psm=%v buffered=%d, want true/5", psm, buffered)
	}
	// Wake with PS-Poll: buffer flushes.
	c.send(dot11.Frame{Type: dot11.TypePSPoll, Addr1: w.ap.BSSID(), Addr3: w.ap.BSSID()})
	w.eng.Run(w.eng.Now() + 200*time.Millisecond)
	if got := len(c.frames(dot11.TypeData)); got != before+5 {
		t.Fatalf("frames after wake = %d, want %d", got, before+5)
	}
}

func TestPSMBufferCapDrops(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	ip := c.dhcpJoin(w, t)
	c.send(dot11.Frame{Type: dot11.TypeNullData, Addr1: w.ap.BSSID(), Addr3: w.ap.BSSID(), PowerMgmt: true})
	w.eng.Run(w.eng.Now() + 50*time.Millisecond)
	// Feed 40 small packets (within the backhaul queue limit); the PSM
	// buffer holds 10 and the rest must be dropped at the buffer.
	for i := 0; i < 40; i++ {
		w.ap.FromInternet(ipnet.Packet{Proto: ipnet.ProtoTCP, Dst: ip})
	}
	w.eng.Run(w.eng.Now() + 2*time.Second)
	if got := w.ap.Stats().PSMDropped; got != 30 {
		t.Fatalf("PSMDropped = %d, want 30", got)
	}
	if _, _, _, buffered := w.ap.StationState(dot11.MAC(1)); buffered != 10 {
		t.Fatalf("buffered = %d, want 10", buffered)
	}
}

func TestDHCPResponseNotPSMBuffered(t *testing.T) {
	// A station that associates, enters PSM, and then asks for DHCP should
	// have the response transmitted immediately (and lost if absent), not
	// buffered: join traffic is never held by PSM.
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	c.join(w, t)
	c.send(dot11.Frame{Type: dot11.TypeNullData, Addr1: w.ap.BSSID(), Addr3: w.ap.BSSID(), PowerMgmt: true})
	w.eng.Run(w.eng.Now() + 50*time.Millisecond)
	c.sendDHCP(w, dhcp.Message{Type: dhcp.Discover, XID: 5, ClientMAC: dot11.MAC(1)})
	w.eng.Run(w.eng.Now() + time.Second)
	// The offer must have been transmitted (station still on channel, so
	// it arrives), not buffered.
	if _, _, _, buffered := w.ap.StationState(dot11.MAC(1)); buffered != 0 {
		t.Fatalf("join traffic buffered: %d frames", buffered)
	}
	c.findDHCP(t, dhcp.Offer)
}

func TestDeauthDropsState(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	ip := c.dhcpJoin(w, t)
	c.send(dot11.Frame{Type: dot11.TypeDeauth, Addr1: w.ap.BSSID(), Addr3: w.ap.BSSID()})
	w.eng.Run(w.eng.Now() + 50*time.Millisecond)
	if assoc, _, _, _ := w.ap.StationState(dot11.MAC(1)); assoc {
		t.Fatal("station still associated after deauth")
	}
	// Downlink to its old IP should now drop.
	before := len(c.frames(dot11.TypeData))
	w.ap.FromInternet(ipnet.Packet{Proto: ipnet.ProtoTCP, Dst: ip})
	w.eng.Run(w.eng.Now() + 2*time.Second)
	if len(c.frames(dot11.TypeData)) != before {
		t.Fatal("packet delivered to deauthed station")
	}
}

func TestBackhaulShapesDownlink(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	ip := c.dhcpJoin(w, t)
	start := w.eng.Now()
	// 2 Mbit/s backhaul: 50 × 1472 B ≈ 0.59 Mbit ≈ 0.29 s.
	for i := 0; i < 50; i++ {
		w.ap.FromInternet(ipnet.Packet{Proto: ipnet.ProtoTCP, Dst: ip, TCP: ipnet.TCP{Payload: 1460}})
	}
	w.eng.Run(w.eng.Now() + 2*time.Second)
	elapsed := w.eng.Now() - start
	if elapsed < 250*time.Millisecond {
		t.Fatalf("50 MTU packets crossed a 2Mbps backhaul in %v", elapsed)
	}
}

func TestCloseSilences(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	w.ap.Close()
	w.eng.Run(time.Second)
	if len(c.got) != 0 {
		t.Fatalf("closed AP emitted %d frames", len(c.got))
	}
}

func TestCaptivePortalBlocksWAN(t *testing.T) {
	eng := sim.NewEngine()
	params := phy.Defaults()
	params.Loss = func(float64) float64 { return 0 }
	medium := phy.NewMedium(eng, sim.NewRNG(1).Stream("phy"), params)
	cfg := DefaultConfig("captive", dot11.Channel6, gw)
	cfg.BlockWAN = true
	cfg.MgmtDelayMin, cfg.MgmtDelayMax = time.Millisecond, 2*time.Millisecond
	cfg.DHCP.RespDelayMin, cfg.DHCP.RespDelayMax = 10*time.Millisecond, 20*time.Millisecond
	cfg.IPAM = bindPool(gw, 64)
	var uplinked []ipnet.Packet
	w := &world{eng: eng, medium: medium}
	w.ap = New(eng, sim.NewRNG(2), medium, geo.Point{}, dot11.MAC(1000), cfg,
		func(p ipnet.Packet) { uplinked = append(uplinked, p) })
	c := w.newClient(dot11.MAC(1))
	ip := c.dhcpJoin(w, t) // DHCP still works behind the portal

	// Gateway ping still answered locally.
	ping := ipnet.EchoRequestPacket(ip, gw, 1, 1)
	c.send(dot11.Frame{Type: dot11.TypeData, Addr1: w.ap.BSSID(), Addr3: w.ap.BSSID(), Packet: ping})
	w.eng.Run(w.eng.Now() + 200*time.Millisecond)
	if w.ap.Stats().PingsAnswered != 1 {
		t.Fatal("gateway ping blocked by captive portal")
	}
	// WAN traffic is dropped.
	pkt := ipnet.Packet{Proto: ipnet.ProtoTCP, TTL: 64, Src: ip, Dst: ipnet.AddrFrom4(8, 8, 8, 8)}
	c.send(dot11.Frame{Type: dot11.TypeData, Addr1: w.ap.BSSID(), Addr3: w.ap.BSSID(), Packet: pkt})
	w.eng.Run(w.eng.Now() + 500*time.Millisecond)
	if len(uplinked) != 0 {
		t.Fatalf("captive portal leaked %d packets upstream", len(uplinked))
	}
	if w.ap.Stats().WANBlocked != 1 {
		t.Fatalf("WANBlocked = %d, want 1", w.ap.Stats().WANBlocked)
	}
}

func TestCrashSilencesAndWipesState(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	ip := c.dhcpJoin(w, t)
	w.ap.Crash()
	if !w.ap.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	if assoc, _, lease, _ := w.ap.StationState(dot11.MAC(1)); assoc || lease {
		t.Fatal("station state survived the crash")
	}
	// No beacons, no probe or auth responses while down.
	before := len(c.got)
	c.send(dot11.Frame{Type: dot11.TypeProbeReq, Addr1: dot11.Broadcast})
	bssid := w.ap.BSSID()
	c.send(dot11.Frame{Type: dot11.TypeAuth, Addr1: bssid, Addr3: bssid, Body: (&dot11.AuthBody{SeqNum: 1}).AppendTo(nil)})
	w.eng.Run(w.eng.Now() + time.Second)
	if len(c.got) != before {
		t.Fatalf("crashed AP emitted %d frames", len(c.got)-before)
	}
	// Downlink to the pre-crash lease drops.
	w.ap.FromInternet(ipnet.Packet{Proto: ipnet.ProtoTCP, Dst: ip})
	w.eng.Run(w.eng.Now() + time.Second)
	if len(c.got) != before {
		t.Fatal("crashed AP forwarded downlink traffic")
	}
	if w.ap.Stats().Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", w.ap.Stats().Crashes)
	}
}

func TestRebootRestoresJoinability(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	first := c.dhcpJoin(w, t)
	w.ap.Crash()
	w.eng.Run(w.eng.Now() + time.Second)
	w.ap.Reboot()
	if w.ap.Crashed() {
		t.Fatal("Crashed() = true after Reboot")
	}
	// The station can join again from scratch; the rebooted server hands
	// out a fresh pool, so the first address comes back.
	c.got = nil
	again := c.dhcpJoin(w, t)
	if again != first {
		t.Fatalf("post-reboot lease = %v, want pool restart to reissue %v", again, first)
	}
	if w.ap.Stats().Reboots != 1 {
		t.Fatalf("Reboots = %d, want 1", w.ap.Stats().Reboots)
	}
	// Beacons resume.
	before := len(c.frames(dot11.TypeBeacon))
	w.eng.Run(w.eng.Now() + time.Second)
	if got := len(c.frames(dot11.TypeBeacon)); got <= before {
		t.Fatal("no beacons after reboot")
	}
}

func TestCrashGatesInFlightDHCPReply(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	c.join(w, t)
	// Fire a Discover, then crash the AP before its delayed reply departs
	// (DHCP RespDelayMin is 10ms in newWorld).
	c.sendDHCP(w, dhcp.Message{Type: dhcp.Discover, XID: 9, ClientMAC: dot11.MAC(1)})
	w.eng.Run(w.eng.Now() + time.Millisecond)
	w.ap.Crash()
	w.eng.Run(w.eng.Now() + time.Second)
	for _, f := range c.frames(dot11.TypeData) {
		if f.Packet.Proto == ipnet.ProtoUDP && f.Packet.UDP.DstPort == ipnet.PortDHCPClient {
			t.Fatal("DHCP reply escaped a crashed AP")
		}
	}
}

func TestBeaconSuppression(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	w.ap.SetBeaconing(false)
	w.eng.Run(w.eng.Now() + time.Second)
	if got := len(c.frames(dot11.TypeBeacon)); got != 0 {
		t.Fatalf("suppressed AP sent %d beacons", got)
	}
	// Probe responses still work: the AP is up, just quiet.
	c.send(dot11.Frame{Type: dot11.TypeProbeReq, Addr1: dot11.Broadcast})
	w.eng.Run(w.eng.Now() + 100*time.Millisecond)
	if len(c.frames(dot11.TypeProbeResp)) != 1 {
		t.Fatal("suppressed AP stopped answering probes")
	}
	w.ap.SetBeaconing(true)
	w.eng.Run(w.eng.Now() + time.Second)
	if got := len(c.frames(dot11.TypeBeacon)); got < 8 {
		t.Fatalf("beaconing did not resume: %d beacons in 1s", got)
	}
}

func TestSetDHCPFaultReachesServer(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	c.join(w, t)
	w.ap.SetDHCPFault(dhcp.FaultSilent)
	c.sendDHCP(w, dhcp.Message{Type: dhcp.Discover, XID: 3, ClientMAC: dot11.MAC(1)})
	w.eng.Run(w.eng.Now() + time.Second)
	for _, f := range c.frames(dot11.TypeData) {
		if f.Packet.Proto == ipnet.ProtoUDP && f.Packet.UDP.DstPort == ipnet.PortDHCPClient {
			t.Fatal("silenced DHCP server replied")
		}
	}
	w.ap.SetDHCPFault(dhcp.FaultNone)
	c.sendDHCP(w, dhcp.Message{Type: dhcp.Discover, XID: 4, ClientMAC: dot11.MAC(1)})
	w.eng.Run(w.eng.Now() + time.Second)
	c.findDHCP(t, dhcp.Offer)
}

func TestBackhaulFaultKnobs(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	ip := c.dhcpJoin(w, t)
	w.ap.SetBackhaulBlackhole(true)
	before := len(c.frames(dot11.TypeData))
	w.ap.FromInternet(ipnet.Packet{Proto: ipnet.ProtoTCP, Dst: ip, TCP: ipnet.TCP{Payload: 1}})
	w.eng.Run(w.eng.Now() + time.Second)
	if got := len(c.frames(dot11.TypeData)); got != before {
		t.Fatal("blackholed downlink delivered")
	}
	w.ap.SetBackhaulBlackhole(false)
	w.ap.SetBackhaulExtraDelay(200 * time.Millisecond)
	w.ap.FromInternet(ipnet.Packet{Proto: ipnet.ProtoTCP, Dst: ip, TCP: ipnet.TCP{Payload: 1}})
	w.eng.Run(w.eng.Now() + 150*time.Millisecond)
	if got := len(c.frames(dot11.TypeData)); got != before {
		t.Fatal("downlink arrived before the injected latency elapsed")
	}
	w.eng.Run(w.eng.Now() + time.Second)
	if got := len(c.frames(dot11.TypeData)); got != before+1 {
		t.Fatalf("frames = %d, want %d (delayed packet must still arrive)", got, before+1)
	}
}
