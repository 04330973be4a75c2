// Package ap implements a simulated 802.11 access point: beaconing, the
// auth/assoc join handshake, power-save-mode buffering of data frames, a
// DHCP server behind the paper's β response-delay distribution, gateway
// ICMP, and a rate-limited wired backhaul in both directions.
//
// One behaviour is central to the paper and modelled exactly: join-phase
// traffic (probe, auth, assoc, and DHCP responses) is never buffered by
// PSM. If the client is away on another channel when a join response is
// transmitted, the response is lost and the client must retransmit — this
// is why fractional channel schedules depress join success.
//
// Data frames carry their IP packet as a value (dot11.Frame.Packet). The AP
// routes on the packet's fields, holds packet values in its power-save
// buffers and backhaul queues, and serializes nothing.
package ap

import (
	"fmt"

	"spider/internal/backhaul"
	"spider/internal/dhcp"
	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/ipam"
	"spider/internal/ipnet"
	"spider/internal/phy"
	"spider/internal/sim"
)

// CapPrivacy is the beacon capability bit advertising an encrypted network.
const CapPrivacy uint16 = 0x0010

// Config describes one access point.
type Config struct {
	SSID    string
	Channel dot11.Channel
	// Open marks a joinable network; closed APs beacon with the privacy
	// bit and refuse authentication.
	Open bool
	// Gateway is the AP's LAN address (DHCP server and ping target).
	Gateway ipnet.Addr
	// BeaconInterval defaults to 100 ms.
	BeaconInterval sim.Time
	// MgmtDelayMin/Max bound the uniform processing delay before
	// management responses (probe, auth, assoc).
	MgmtDelayMin sim.Time
	MgmtDelayMax sim.Time
	// PSMBufferLimit caps buffered frames per dozing station.
	PSMBufferLimit int
	// WirelessQueueLimit caps frames queued at the radio.
	WirelessQueueLimit int
	// DHCP configures the embedded DHCP server. Gateway is overwritten
	// with Config.Gateway.
	DHCP dhcp.ServerConfig
	// IPAM is the ipam binding the DHCP server allocates through
	// (required) — how a scenario puts many APs of one backhaul segment on
	// a shared pool hierarchy with backup failover and per-AP reserves.
	IPAM *ipam.Binding
	// Backhaul configures each direction of the wired link. RateBps is
	// the AP's offered end-to-end bandwidth.
	Backhaul backhaul.Config
	// BlockWAN drops all uplink traffic except DHCP and gateway ICMP — a
	// captive portal. Clients associate and obtain leases but get no
	// internet connectivity.
	BlockWAN bool
}

// DefaultConfig returns an open AP on the given channel with typical
// residential parameters.
func DefaultConfig(ssid string, ch dot11.Channel, gateway ipnet.Addr) Config {
	return Config{
		SSID:               ssid,
		Channel:            ch,
		Open:               true,
		Gateway:            gateway,
		BeaconInterval:     100 * 1000 * 1000, // 100 ms
		MgmtDelayMin:       2 * 1000 * 1000,
		MgmtDelayMax:       30 * 1000 * 1000,
		PSMBufferLimit:     100,
		WirelessQueueLimit: 50,
		DHCP:               dhcp.DefaultServerConfig(gateway),
		// 100 ms one-way wired delay gives the ≈200 ms RTTs of the
		// paper's testbed ("400 ms ... is less than two RTTs").
		Backhaul: backhaul.Config{RateBps: 2e6, Delay: 100 * 1000 * 1000},
	}
}

type station struct {
	mac      dot11.MACAddr
	authed   bool
	assoc    bool
	psm      bool
	hasLease bool
	aid      uint16
	buffer   []ipnet.Packet
}

// Stats aggregates AP counters for experiments.
type Stats struct {
	Associations  int
	AuthRejects   int
	Crashes       int
	Reboots       int
	PSMBuffered   uint64
	PSMDropped    uint64
	QueueDropped  uint64
	UplinkPackets uint64
	DownPackets   uint64
	PingsAnswered uint64
	WANBlocked    uint64
}

// AP is one simulated access point.
type AP struct {
	eng *sim.Engine
	rng *sim.RNG
	cfg Config

	radio   *phy.Radio
	dhcpSrv *dhcp.Server
	down    *backhaul.Link
	up      *backhaul.Link
	uplink  func(ipnet.Packet)

	stations map[dot11.MACAddr]*station
	ipToMAC  map[ipnet.Addr]dot11.MACAddr

	outstanding int
	nextAID     uint16
	stopBeacons func()
	crashed     bool
	beaconing   bool

	// beaconBody is the serialized beacon/probe-response body. SSID,
	// interval, and capabilities are fixed at New, so it is built once
	// rather than on every 100 ms tick. Never mutated: every beacon and
	// probe response shares it, and receivers alias it.
	beaconBody []byte
	// decOutstanding is the status callback used when the caller passed
	// none, cached so queue-capped sends don't allocate a closure each.
	decOutstanding func(bool)
	// mgmtFree pools the deferred management-response jobs.
	mgmtFree *mgmtJob

	stats Stats
}

// mgmtJob is a pooled deferred management response (probe, auth, assoc),
// replacing a per-frame closure on the AP's busiest receive path.
type mgmtJob struct {
	a    *AP
	kind dot11.FrameType
	from dot11.MACAddr
	next *mgmtJob
}

func (j *mgmtJob) RunEvent() {
	a, kind, from := j.a, j.kind, j.from
	j.next = a.mgmtFree
	a.mgmtFree = j
	switch kind {
	case dot11.TypeProbeReq:
		a.sendProbeResp(from)
	case dot11.TypeAuth:
		a.handleAuth(from)
	case dot11.TypeAssocReq:
		a.handleAssoc(from)
	}
}

// scheduleMgmt queues a management response after the sampled processing
// delay using a pooled job.
func (a *AP) scheduleMgmt(kind dot11.FrameType, from dot11.MACAddr) {
	j := a.mgmtFree
	if j == nil {
		j = &mgmtJob{a: a}
	} else {
		a.mgmtFree = j.next
		j.next = nil
	}
	j.kind = kind
	j.from = from
	a.eng.ScheduleCall(a.mgmtDelay(), j)
}

// New creates an AP at a fixed position and starts beaconing. uplink
// receives packets leaving through the AP's backhaul toward the internet;
// the scenario wires it to remote endpoints.
func New(eng *sim.Engine, rng *sim.RNG, medium *phy.Medium, pos geo.Point, mac dot11.MACAddr, cfg Config, uplink func(ipnet.Packet)) *AP {
	if cfg.BeaconInterval <= 0 {
		cfg.BeaconInterval = 100 * 1000 * 1000
	}
	if cfg.PSMBufferLimit <= 0 {
		cfg.PSMBufferLimit = 100
	}
	if cfg.WirelessQueueLimit <= 0 {
		cfg.WirelessQueueLimit = 50
	}
	if cfg.MgmtDelayMax < cfg.MgmtDelayMin {
		cfg.MgmtDelayMax = cfg.MgmtDelayMin
	}
	cfg.DHCP.Gateway = cfg.Gateway
	a := &AP{
		eng:       eng,
		rng:       rng,
		cfg:       cfg,
		uplink:    uplink,
		beaconing: true,
		stations:  make(map[dot11.MACAddr]*station),
		ipToMAC:   make(map[ipnet.Addr]dot11.MACAddr),
	}
	a.decOutstanding = func(bool) { a.outstanding-- }
	body := dot11.BeaconBody{
		SSID:           cfg.SSID,
		BeaconInterval: uint16(cfg.BeaconInterval / (1000 * 1000)),
		Capabilities:   a.capabilities(),
	}
	a.beaconBody = body.AppendTo(nil)
	a.radio = medium.NewRadio(mac, func() geo.Point { return pos }, 0)
	a.radio.SetChannel(cfg.Channel, nil)
	a.radio.SetReceiver(a.onFrame, rxTypes...)
	a.dhcpSrv = dhcp.NewServer(eng, rng.Stream("dhcp"), cfg.DHCP, cfg.IPAM)
	a.down = backhaul.NewLink(eng, cfg.Backhaul, a.fromWire)
	a.up = backhaul.NewLink(eng, cfg.Backhaul, func(p ipnet.Packet) {
		a.stats.UplinkPackets++
		if a.uplink != nil {
			a.uplink(p)
		}
	})
	a.stopBeacons = eng.Ticker(cfg.BeaconInterval, a.beacon)
	return a
}

// Close silences the AP.
func (a *AP) Close() {
	a.stopBeacons()
	a.radio.Close()
}

// BSSID returns the AP's MAC address.
func (a *AP) BSSID() dot11.MACAddr { return a.radio.MAC() }

// Gateway returns the AP's LAN gateway address.
func (a *AP) Gateway() ipnet.Addr { return a.cfg.Gateway }

// Channel returns the AP's operating channel.
func (a *AP) Channel() dot11.Channel { return a.cfg.Channel }

// SSID returns the AP's network name.
func (a *AP) SSID() string { return a.cfg.SSID }

// Config returns the effective configuration.
func (a *AP) Config() Config { return a.cfg }

// Stats returns a snapshot of the AP counters.
func (a *AP) Stats() Stats { return a.stats }

// DHCPServer exposes the embedded server (tests and experiments).
func (a *AP) DHCPServer() *dhcp.Server { return a.dhcpSrv }

// Crash power-cycles the AP off: the radio leaves the air and every bit
// of soft state — stations, IP bindings, DHCP leases, fault modes — is
// lost, exactly as when a residential AP loses power. The AP stays down
// until Reboot.
func (a *AP) Crash() {
	if a.crashed {
		return
	}
	a.crashed = true
	a.stats.Crashes++
	a.radio.SetDown(true)
	a.stations = make(map[dot11.MACAddr]*station)
	a.ipToMAC = make(map[ipnet.Addr]dot11.MACAddr)
	a.nextAID = 0
	a.dhcpSrv.Reset()
}

// Reboot brings a crashed AP back up with empty state: it resumes
// beaconing and clients must re-associate and re-acquire leases.
func (a *AP) Reboot() {
	if !a.crashed {
		return
	}
	a.crashed = false
	a.stats.Reboots++
	a.radio.SetDown(false)
}

// Crashed reports whether the AP is currently down.
func (a *AP) Crashed() bool { return a.crashed }

// SetBeaconing enables or suppresses beacon transmission (fault
// injection); the AP otherwise keeps serving associated clients.
func (a *AP) SetBeaconing(on bool) { a.beaconing = on }

// SetDHCPFault switches the embedded DHCP server's fault mode.
func (a *AP) SetDHCPFault(mode dhcp.FaultMode) { a.dhcpSrv.SetFault(mode) }

// SetBackhaulBlackhole blackholes both directions of the wired link.
func (a *AP) SetBackhaulBlackhole(on bool) {
	a.down.SetBlackhole(on)
	a.up.SetBlackhole(on)
}

// SetBackhaulExtraDelay injects extra one-way delay in both directions.
func (a *AP) SetBackhaulExtraDelay(extra sim.Time) {
	a.down.SetExtraDelay(extra)
	a.up.SetExtraDelay(extra)
}

// FromInternet injects a packet arriving from the wired side; it traverses
// the rate-limited downlink before reaching the wireless side.
func (a *AP) FromInternet(p ipnet.Packet) { a.down.Send(p) }

// Downlink returns the wired downlink for queue inspection.
func (a *AP) Downlink() *backhaul.Link { return a.down }

func (a *AP) capabilities() uint16 {
	if a.cfg.Open {
		return 0
	}
	return CapPrivacy
}

func (a *AP) beacon() {
	if a.crashed || !a.beaconing {
		return
	}
	a.sendFrame(dot11.Frame{
		Type:  dot11.TypeBeacon,
		Addr1: dot11.Broadcast,
		Addr3: a.BSSID(),
		Seq:   a.radio.NextSeq(),
		Body:  a.beaconBody,
	}, nil)
}

// sendFrame transmits with the wireless queue cap applied.
func (a *AP) sendFrame(f dot11.Frame, status func(bool)) {
	if a.outstanding >= a.cfg.WirelessQueueLimit {
		a.stats.QueueDropped++
		if status != nil {
			status(false)
		}
		return
	}
	a.outstanding++
	if status == nil {
		a.radio.Send(f, a.decOutstanding)
		return
	}
	a.radio.Send(f, func(ok bool) {
		a.outstanding--
		status(ok)
	})
}

// mgmtDelay samples the management processing delay.
func (a *AP) mgmtDelay() sim.Time {
	return a.rng.UniformDuration(a.cfg.MgmtDelayMin, a.cfg.MgmtDelayMax+1)
}

// rxTypes lists the frame types onFrame handles. The medium still draws
// for and counts a frame of any other type, but does not call onFrame.
var rxTypes = []dot11.FrameType{dot11.TypeProbeReq, dot11.TypeAuth, dot11.TypeAssocReq,
	dot11.TypeDeauth, dot11.TypeNullData, dot11.TypePSPoll, dot11.TypeData}

// onFrame handles a received frame, which is the medium's and valid only
// for the call.
func (a *AP) onFrame(f *dot11.Frame, info phy.RxInfo) {
	if a.crashed {
		return
	}
	switch f.Type {
	case dot11.TypeProbeReq:
		a.scheduleMgmt(dot11.TypeProbeReq, f.Addr2)
	case dot11.TypeAuth:
		if f.Addr3 != a.BSSID() && !f.Addr1.IsBroadcast() && f.Addr1 != a.BSSID() {
			return
		}
		a.scheduleMgmt(dot11.TypeAuth, f.Addr2)
	case dot11.TypeAssocReq:
		if f.Addr1 != a.BSSID() {
			return
		}
		a.scheduleMgmt(dot11.TypeAssocReq, f.Addr2)
	case dot11.TypeDeauth:
		if f.Addr1 != a.BSSID() {
			return
		}
		a.dropStation(f.Addr2)
	case dot11.TypeNullData:
		if f.Addr1 != a.BSSID() {
			return
		}
		a.setPSM(f.Addr2, f.PowerMgmt)
	case dot11.TypePSPoll:
		if f.Addr1 != a.BSSID() {
			return
		}
		if st := a.stations[f.Addr2]; st != nil {
			st.psm = false
			a.flush(st)
		}
	case dot11.TypeData:
		if f.Addr1 != a.BSSID() {
			return
		}
		// Data frames may also carry the PM bit.
		if st := a.stations[f.Addr2]; st != nil && st.assoc {
			st.psm = f.PowerMgmt
		}
		a.handleData(f)
	}
}

func (a *AP) sendProbeResp(to dot11.MACAddr) {
	if a.crashed {
		return
	}
	a.sendFrame(dot11.Frame{
		Type:  dot11.TypeProbeResp,
		Addr1: to,
		Addr3: a.BSSID(),
		Seq:   a.radio.NextSeq(),
		Body:  a.beaconBody,
	}, nil)
}

func (a *AP) handleAuth(from dot11.MACAddr) {
	if a.crashed {
		return
	}
	status := uint16(0)
	if !a.cfg.Open {
		status = 1
		a.stats.AuthRejects++
	} else {
		st := a.stations[from]
		if st == nil {
			st = &station{mac: from}
			a.stations[from] = st
		}
		st.authed = true
	}
	body := dot11.AuthBody{SeqNum: 2, Status: status}
	a.sendFrame(dot11.Frame{
		Type:  dot11.TypeAuthResp,
		Addr1: from,
		Addr3: a.BSSID(),
		Seq:   a.radio.NextSeq(),
		Body:  body.AppendTo(nil),
	}, nil)
}

func (a *AP) handleAssoc(from dot11.MACAddr) {
	if a.crashed {
		return
	}
	st := a.stations[from]
	status := uint16(0)
	var aid uint16
	if st == nil || !st.authed || !a.cfg.Open {
		status = 1
	} else {
		if !st.assoc {
			a.nextAID++
			st.aid = a.nextAID
			st.assoc = true
			a.stats.Associations++
		}
		aid = st.aid
	}
	body := dot11.AssocRespBody{Status: status, AID: aid}
	a.sendFrame(dot11.Frame{
		Type:  dot11.TypeAssocResp,
		Addr1: from,
		Addr3: a.BSSID(),
		Seq:   a.radio.NextSeq(),
		Body:  body.AppendTo(nil),
	}, nil)
}

func (a *AP) dropStation(mac dot11.MACAddr) {
	if st := a.stations[mac]; st != nil {
		delete(a.stations, mac)
		for ip, m := range a.ipToMAC {
			if m == mac {
				delete(a.ipToMAC, ip)
			}
		}
		_ = st
	}
}

func (a *AP) setPSM(mac dot11.MACAddr, doze bool) {
	st := a.stations[mac]
	if st == nil || !st.assoc {
		return
	}
	st.psm = doze
	if !doze {
		a.flush(st)
	}
}

// flush transmits all PSM-buffered packets for a station.
func (a *AP) flush(st *station) {
	buffered := st.buffer
	st.buffer = nil
	for _, p := range buffered {
		a.transmitDown(st.mac, p)
	}
}

// handleData processes an uplink data frame from an associated station.
func (a *AP) handleData(f *dot11.Frame) {
	st := a.stations[f.Addr2]
	if st == nil || !st.assoc {
		return // not associated: a real AP would deauth; the client re-joins
	}
	pkt := &f.Packet
	// DHCP traffic terminates at the AP.
	if pkt.Proto == ipnet.ProtoUDP && pkt.UDP.DstPort == ipnet.PortDHCPServer {
		a.handleDHCP(st.mac, pkt.UDP.Payload)
		return
	}
	// Gateway-addressed ICMP answers locally.
	if pkt.Dst == a.cfg.Gateway && pkt.Proto == ipnet.ProtoICMP {
		if pkt.Echo.Type == ipnet.ICMPEchoRequest {
			a.stats.PingsAnswered++
			// Liveness replies are join-class traffic: never PSM-buffered.
			a.transmitDown(st.mac, ipnet.EchoReplyPacket(*pkt))
		}
		return
	}
	// Everything else leaves through the backhaul — unless a captive
	// portal is in the way.
	if a.cfg.BlockWAN {
		a.stats.WANBlocked++
		return
	}
	a.up.Send(*pkt)
}

func (a *AP) handleDHCP(mac dot11.MACAddr, payload []byte) {
	msg, err := dhcp.DecodeMessage(payload)
	if err != nil || msg.ClientMAC != mac {
		return
	}
	a.dhcpSrv.Handle(msg, func(resp Message) {
		if a.crashed {
			return // the response was in flight when the AP lost power
		}
		if resp.Type == dhcp.Ack {
			a.ipToMAC[resp.YourIP] = mac
			if st := a.stations[mac]; st != nil {
				st.hasLease = true
			}
		}
		pkt := ipnet.Packet{
			Proto: ipnet.ProtoUDP, TTL: ipnet.DefaultTTL,
			Src: a.cfg.Gateway, Dst: resp.YourIP,
			UDP: ipnet.UDP{SrcPort: ipnet.PortDHCPServer, DstPort: ipnet.PortDHCPClient, Payload: resp.Bytes()},
		}
		// DHCP responses are join traffic: transmitted immediately, lost
		// if the client is off-channel (the paper's key constraint).
		a.transmitDown(mac, pkt)
	})
}

// Message aliases dhcp.Message for the handler callback signature.
type Message = dhcp.Message

// fromWire receives packets that crossed the downlink; route to stations.
func (a *AP) fromWire(p ipnet.Packet) {
	if a.crashed {
		return
	}
	a.stats.DownPackets++
	mac, ok := a.ipToMAC[p.Dst]
	if !ok {
		return
	}
	st := a.stations[mac]
	if st == nil || !st.assoc {
		return
	}
	if st.psm && st.hasLease {
		if len(st.buffer) >= a.cfg.PSMBufferLimit {
			a.stats.PSMDropped++
			return
		}
		st.buffer = append(st.buffer, p)
		a.stats.PSMBuffered++
		return
	}
	a.transmitDown(mac, p)
}

// transmitDown wraps an IP packet in a data frame to the station.
func (a *AP) transmitDown(mac dot11.MACAddr, p ipnet.Packet) {
	a.sendFrame(dot11.Frame{
		Type:   dot11.TypeData,
		Addr1:  mac,
		Addr3:  a.BSSID(),
		Seq:    a.radio.NextSeq(),
		Packet: p,
	}, nil)
}

// StationState reports a station's association state for tests.
func (a *AP) StationState(mac dot11.MACAddr) (assoc, psm, lease bool, buffered int) {
	st := a.stations[mac]
	if st == nil {
		return false, false, false, 0
	}
	return st.assoc, st.psm, st.hasLease, len(st.buffer)
}

func (a *AP) String() string {
	return fmt.Sprintf("ap{%s %s %v gw=%s}", a.cfg.SSID, a.BSSID(), a.cfg.Channel, a.cfg.Gateway)
}
