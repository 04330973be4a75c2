package ap

import (
	"testing"
	"time"

	"spider/internal/dhcp"
	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/ipnet"
	"spider/internal/phy"
	"spider/internal/sim"
)

// newWorldPool is newWorld with a bounded DHCP pool, for the
// multi-station lease-pressure tests.
func newWorldPool(t *testing.T, poolSize int) *world {
	t.Helper()
	eng := sim.NewEngine()
	w := &world{eng: eng, medium: phy.NewMedium(eng, sim.NewRNG(1).Stream("phy"))}
	cfg := DefaultConfig("testnet", dot11.Channel6, gw)
	cfg.Open = true
	cfg.MgmtDelayMin, cfg.MgmtDelayMax = time.Millisecond, 2*time.Millisecond
	cfg.DHCP.RespDelayMin, cfg.DHCP.RespDelayMax = 10*time.Millisecond, 20*time.Millisecond
	cfg.IPAM = bindPool(gw, poolSize)
	w.ap = New(eng, sim.NewRNG(2), w.medium, geo.Point{}, dot11.MAC(1000), cfg,
		func(p ipnet.Packet) { w.uplink = append(w.uplink, p) })
	return w
}

// TestConcurrentJoinersDistinctState: several stations complete
// association and DHCP against one AP with their exchanges interleaved;
// each must end with its own AID and its own lease.
func TestConcurrentJoinersDistinctState(t *testing.T) {
	w := newWorld(t, true)
	const n = 5
	clients := make([]*client, n)
	bssid := w.ap.BSSID()
	for i := range clients {
		clients[i] = w.newClient(dot11.MAC(uint32(1 + i)))
	}
	// Fire every handshake stage for all stations before letting the
	// engine drain, so the AP serves the joins interleaved rather than
	// one at a time.
	for _, c := range clients {
		c.send(dot11.Frame{Type: dot11.TypeAuth, Addr1: bssid, Addr3: bssid,
			Body: (&dot11.AuthBody{SeqNum: 1}).AppendTo(nil)})
	}
	w.eng.Run(w.eng.Now() + 200*time.Millisecond)
	for _, c := range clients {
		c.send(dot11.Frame{Type: dot11.TypeAssocReq, Addr1: bssid, Addr3: bssid})
	}
	w.eng.Run(w.eng.Now() + 200*time.Millisecond)
	for i, c := range clients {
		c.sendDHCP(w, dhcp.Message{Type: dhcp.Discover, XID: uint32(100 + i), ClientMAC: c.radio.MAC()})
	}
	w.eng.Run(w.eng.Now() + time.Second)
	for i, c := range clients {
		offer := c.findDHCP(t, dhcp.Offer)
		c.sendDHCP(w, dhcp.Message{Type: dhcp.Request, XID: uint32(100 + i),
			ClientMAC: c.radio.MAC(), YourIP: offer.YourIP, ServerIP: offer.ServerIP})
	}
	w.eng.Run(w.eng.Now() + time.Second)

	aids := map[uint16]dot11.MACAddr{}
	ips := map[ipnet.Addr]dot11.MACAddr{}
	for _, c := range clients {
		mac := c.radio.MAC()
		assoc, _, hasLease, _ := w.ap.StationState(mac)
		if !assoc || !hasLease {
			t.Fatalf("station %v: assoc=%v lease=%v", mac, assoc, hasLease)
		}
		ar := c.frames(dot11.TypeAssocResp)
		if len(ar) == 0 {
			t.Fatalf("station %v got no assoc response", mac)
		}
		body, err := dot11.DecodeAssocRespBody(ar[0].Body)
		if err != nil || body.Status != 0 {
			t.Fatalf("station %v assoc body = %+v, err=%v", mac, body, err)
		}
		if prev, dup := aids[body.AID]; dup {
			t.Fatalf("AID %d assigned to both %v and %v", body.AID, prev, mac)
		}
		aids[body.AID] = mac
		ack := c.findDHCP(t, dhcp.Ack)
		if prev, dup := ips[ack.YourIP]; dup {
			t.Fatalf("lease %v assigned to both %v and %v", ack.YourIP, prev, mac)
		}
		ips[ack.YourIP] = mac
	}
	if got := w.ap.DHCPServer().LeasesInUse(); got != n {
		t.Fatalf("leases in use = %d, want %d", got, n)
	}
	if got := w.ap.Stats().Associations; got != n {
		t.Fatalf("associations = %d, want %d", got, n)
	}
}

// TestPoolExhaustionUnderConcurrentJoiners: with a 2-address pool and four
// simultaneous joiners, exactly two stations can hold leases and the
// refusals are counted — the bounded-pool behaviour population runs lean
// on.
func TestPoolExhaustionUnderConcurrentJoiners(t *testing.T) {
	w := newWorldPool(t, 2)
	const n = 4
	clients := make([]*client, n)
	bssid := w.ap.BSSID()
	for i := range clients {
		clients[i] = w.newClient(dot11.MAC(uint32(1 + i)))
	}
	for _, c := range clients {
		c.send(dot11.Frame{Type: dot11.TypeAuth, Addr1: bssid, Addr3: bssid,
			Body: (&dot11.AuthBody{SeqNum: 1}).AppendTo(nil)})
	}
	w.eng.Run(w.eng.Now() + 200*time.Millisecond)
	for _, c := range clients {
		c.send(dot11.Frame{Type: dot11.TypeAssocReq, Addr1: bssid, Addr3: bssid})
	}
	w.eng.Run(w.eng.Now() + 200*time.Millisecond)
	for i, c := range clients {
		c.sendDHCP(w, dhcp.Message{Type: dhcp.Discover, XID: uint32(100 + i), ClientMAC: c.radio.MAC()})
	}
	w.eng.Run(w.eng.Now() + 2*time.Second)

	srv := w.ap.DHCPServer()
	if got := srv.LeasesInUse(); got != 2 {
		t.Fatalf("leases in use = %d, want the full pool of 2", got)
	}
	if srv.PoolExhausted == 0 {
		t.Fatal("pool refusals not counted")
	}
	offered := 0
	for _, c := range clients {
		for _, f := range c.frames(dot11.TypeData) {
			if f.Packet.Proto != ipnet.ProtoUDP || f.Packet.UDP.DstPort != ipnet.PortDHCPClient {
				continue
			}
			if m, err := dhcp.DecodeMessage(f.Packet.UDP.Payload); err == nil && m.Type == dhcp.Offer && m.ClientMAC == c.radio.MAC() {
				offered++
				break
			}
		}
	}
	if offered != 2 {
		t.Fatalf("stations holding offers = %d, want 2", offered)
	}
}
