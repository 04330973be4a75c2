package core

import (
	"fmt"
	"sort"

	"spider/internal/alloc"
	"spider/internal/dot11"
	"spider/internal/driver"
	"spider/internal/energy"
	"spider/internal/geo"
	"spider/internal/ipnet"
	"spider/internal/lmm"
	"spider/internal/obs"
	"spider/internal/predict"
	"spider/internal/sim"
	"spider/internal/stats"
	"spider/internal/tcpsim"
)

// maxFlowsPerClient bounds the per-client server-IP namespace: a 16-bit
// counter inside the client's /24-pair of the flow-server range.
const maxFlowsPerClient = 0xFFFF

// Client is one mobile station of a Scenario: a radio position, a virtual
// driver, a link manager, and the TCP receivers of its downloads, all
// accounted into a per-client Result. Clients are built by Scenario.Run
// (at StartOffset, if any); everything here is deterministic given the
// client's Derive'd RNG.
type Client struct {
	s   *Scenario
	cfg ClientConfig
	id  int

	drv     *driver.Driver
	manager *lmm.LMM
	series  *stats.TimeSeries
	res     Result

	// nextServer namespaces flow server IPs per client (satellite of the
	// N-client refactor): client i allocates from 203.i.0.0/16, so two
	// clients can never collide and exhaustion fails loudly.
	nextServer uint32
	// outageStart tracks this client's open outage window (-1 = none);
	// per-client state so populations account outages independently.
	outageStart sim.Time
	// events is this client's structured timeline (nil no-op when the
	// world has no recorder); lastBSSID detects handoffs across link-ups.
	events    *obs.ClientLog
	lastBSSID dot11.MACAddr
	// outSpan is the open cause-attributed outage span; linkSpans the open
	// per-link spans (a multi-VIF client can hold several at once).
	outSpan   *obs.ActiveSpan
	linkSpans map[*lmm.Link]*obs.ActiveSpan

	// allocPol is this client's decentralized fairness policy (nil unless
	// WorldConfig.Alloc selects the Decentralized variant); allocPace is
	// the pacing target the allocator last set for the client's flows,
	// applied to live senders each epoch and to new flows at start
	// (0 = unpaced).
	allocPol  *alloc.Policy
	allocPace float64

	// linkSeconds[k] counts the once-a-second samples that saw exactly k
	// links up.
	linkSeconds []int
}

func newClient(s *Scenario, cfg ClientConfig) *Client {
	c := &Client{s: s, cfg: cfg, id: cfg.ID, outageStart: -1,
		linkSpans: make(map[*lmm.Link]*obs.ActiveSpan)}
	c.series = stats.NewTimeSeries(statsBucket)
	c.res = Result{ClientID: cfg.ID, Preset: cfg.Preset, Seed: s.cfg.Seed,
		Duration: s.cfg.Duration}
	return c
}

// MAC returns the client's stable radio address (derived from its ID; the
// AP address block starts at 0x100000, far above any client).
func (c *Client) MAC() dot11.MACAddr { return dot11.MAC(uint32(1 + c.id)) }

// modelTime maps engine time onto the mobility model's clock: a client
// entering the world at StartOffset starts at the beginning of its route.
func (c *Client) modelTime(now sim.Time) sim.Time {
	t := now - c.cfg.StartOffset
	if t < 0 {
		t = 0
	}
	return t
}

func (c *Client) pos() geo.Point {
	return c.cfg.Mobility.PositionAt(c.modelTime(c.s.eng.Now()))
}

// stillFrom is the engine time from which pos stops changing: the model's
// StillFrom on the client's clock, saturating at sim.Infinity.
func (c *Client) stillFrom() sim.Time {
	still := c.cfg.Mobility.StillFrom()
	if still > sim.Infinity-c.cfg.StartOffset {
		return sim.Infinity
	}
	return c.cfg.StartOffset + still
}

// nextServerIP allocates this client's next flow server address from its
// private block, failing loudly on exhaustion rather than wrapping into a
// neighbour's. Clients 0..255 keep the original 203.<id>.0.0/16 carve;
// the rush-hour population IDs above that get a /24 each out of
// 204.0.0.0/8 — those scenarios run join-only traffic, so the smaller
// per-client flow namespace holds comfortably.
func (c *Client) nextServerIP() ipnet.Addr {
	c.nextServer++
	if c.id < 256 {
		if c.nextServer > maxFlowsPerClient {
			panic(fmt.Sprintf("core: client %d exhausted its flow server-IP space (%d flows)",
				c.id, maxFlowsPerClient))
		}
		return ipnet.AddrFrom4(203, byte(c.id), byte(c.nextServer>>8), byte(c.nextServer))
	}
	if c.nextServer > 0xFF {
		panic(fmt.Sprintf("core: client %d exhausted its flow server-IP space (%d flows)",
			c.id, 0xFF))
	}
	ext := uint32(c.id - 256)
	return ipnet.AddrFrom4(204, byte(ext>>8), byte(ext), byte(c.nextServer))
}

// ownsServerIP reports whether a flow server address was allocated from
// this client's private block (the inverse of nextServerIP's carve).
func (c *Client) ownsServerIP(ip ipnet.Addr) bool {
	if c.id < 256 {
		return byte(ip>>24) == 203 && byte(ip>>16) == byte(c.id)
	}
	ext := uint32(c.id - 256)
	return byte(ip>>24) == 204 && byte(ip>>16) == byte(ext>>8) && byte(ip>>8) == byte(ext)
}

// build materializes the client's stack. Called by Scenario.Run, either
// immediately or at StartOffset.
func (c *Client) build(rng *sim.RNG) {
	s, cfg, eng := c.s, c.cfg, c.s.eng

	c.events = s.cfg.Obs.Client(c.id)
	drvCfg := driver.Config{
		NumVIFs:       cfg.NumVIFs,
		LLTimeout:     cfg.Timers.LLTimeout,
		ProbeInterval: probeInterval,
		Events:        c.events,
	}
	c.drv = driver.New(eng, rng.Stream("driver"), s.medium, c.MAC(), c.pos, c.stillFrom(), drvCfg)
	lcfg := cfg.lmmConfig()
	lcfg.Events = c.events
	if s.cfg.Alloc == alloc.Decentralized {
		c.allocPol = alloc.NewPolicy(c.id)
		lcfg.Alloc = c.allocPol
	}
	c.manager = lmm.New(eng, rng.Stream("lmm"), c.drv, lcfg)
	manager := c.manager

	switch {
	case cfg.DisableTraffic:
		manager.OnLinkUp = func(*lmm.Link) { c.res.LinkUps++ }
		manager.OnLinkDown = func(*lmm.Link) { c.res.LinkDowns++ }
	case cfg.StripeObjectBytes > 0:
		wireStriping(eng, cfg.StripeObjectBytes, &c.res, manager, c.startFlow, c.stopLinkFlows)
	default:
		manager.OnLinkUp = func(l *lmm.Link) {
			c.res.LinkUps++
			total := cfg.FlowBytes
			if total <= 0 {
				total = -1
			}
			c.startFlow(l, total, nil)
		}
		manager.OnLinkDown = func(l *lmm.Link) {
			c.res.LinkDowns++
			c.stopLinkFlows(l)
		}
	}

	// Outage accounting: an outage opens when this client's last live
	// link drops and closes at its next established link — per-client
	// state, so one client's outage never bleeds into another's record.
	// The LMM resets the dying conn before notifying, so its link count
	// is already post-drop here.
	baseUp, baseDown := manager.OnLinkUp, manager.OnLinkDown
	manager.OnLinkUp = func(l *lmm.Link) {
		// Event payloads render BSSIDs; the Enabled guards keep the
		// disabled path from building those strings at all.
		if c.events.Enabled() {
			c.events.Emit(obs.Event{
				At:    eng.Now(),
				Kind:  obs.KindLinkUp,
				BSSID: l.BSSID.String(),
			})
			if ls := c.events.StartSpan(eng.Now(), "link"); ls != nil {
				ls.SetBSSID(l.BSSID.String())
				ls.SetChannel(int(l.VIF.Channel()))
				c.linkSpans[l] = ls
			}
			if c.lastBSSID != (dot11.MACAddr{}) && c.lastBSSID != l.BSSID {
				c.events.Emit(obs.Event{
					At:    eng.Now(),
					Kind:  obs.KindHandoff,
					BSSID: l.BSSID.String(),
					Note:  c.lastBSSID.String(),
				})
			}
		}
		c.lastBSSID = l.BSSID
		if c.outageStart >= 0 {
			outage := eng.Now() - c.outageStart
			c.res.Recoveries = append(c.res.Recoveries, outage.Seconds())
			c.outageStart = -1
			if c.events.Enabled() {
				c.events.Emit(obs.Event{
					At:    eng.Now(),
					Kind:  obs.KindOutageEnd,
					Value: int64(outage),
				})
			}
			c.outSpan.End(eng.Now())
			c.outSpan = nil
		}
		if baseUp != nil {
			baseUp(l)
		}
	}
	manager.OnLinkDown = func(l *lmm.Link) {
		if c.events.Enabled() {
			c.events.Emit(obs.Event{
				At:    eng.Now(),
				Kind:  obs.KindLinkDown,
				BSSID: l.BSSID.String(),
				Note:  l.DownCause,
			})
		}
		if ls := c.linkSpans[l]; ls != nil {
			ls.EndStatus(eng.Now(), l.DownCause)
			delete(c.linkSpans, l)
		}
		if baseDown != nil {
			baseDown(l)
		}
		if c.outageStart < 0 && manager.NumActiveLinks() == 0 {
			c.outageStart = eng.Now()
			cause := c.classifyOutage(l)
			if c.events.Enabled() {
				c.events.Emit(obs.Event{
					At:   eng.Now(),
					Kind: obs.KindOutageBegin,
					Note: cause,
				})
				c.outSpan = c.events.StartSpan(eng.Now(), "outage")
				if c.outSpan != nil {
					c.outSpan.SetBSSID(l.BSSID.String())
					c.outSpan.SetStatus(cause)
				}
			}
		}
	}

	// Adaptive controller (future-work extension): single channel at
	// speed, multi-channel rotation when slow.
	if cfg.Preset == Adaptive {
		multi := false
		eng.Ticker(adaptiveCheckInterval, func() {
			fast := cfg.Mobility.Speed() >= adaptiveSpeedThreshold
			if fast && multi {
				multi = false
				manager.SetSchedule([]driver.Slot{{Channel: cfg.PrimaryChannel}})
			} else if !fast && !multi {
				multi = true
				var slots []driver.Slot
				for _, ch := range cfg.Channels {
					slots = append(slots, driver.Slot{Channel: ch, Duration: cfg.SlotDuration})
				}
				manager.SetSchedule(slots)
			}
		})
	}

	// Predictive controller (encounter-history extension): learn per-road
	// channel quality from join outcomes, then plan the schedule for the
	// position a few seconds ahead; rotate channels in unexplored areas.
	if cfg.Preset == Predictive {
		hist := predict.New()
		manager.OnJoin = func(j lmm.JoinRecord) {
			score := 0.0
			switch j.Stage {
			case lmm.StageComplete:
				score = 1.0
			case lmm.StagePingFailed:
				score = -0.2 // joinable but useless (captive): steer away
			case lmm.StageDHCPFailed:
				score = 0.1
			case lmm.StageAssocFailed:
				score = -0.3
			}
			hist.Record(predict.Observation{
				Pos: c.pos(), Channel: j.Channel, BSSID: j.BSSID, Score: score,
			})
		}
		rotation := cfg.schedule()
		planned := dot11.Channel(0) // 0 = rotating (exploring)
		eng.Ticker(predictiveReplanInterval, func() {
			ahead := cfg.Mobility.PositionAt(c.modelTime(eng.Now()) + predictiveLookahead)
			if ch, ok := hist.BestChannel(ahead); ok {
				if planned != ch {
					planned = ch
					manager.SetSchedule([]driver.Slot{{Channel: ch}})
				}
				return
			}
			if planned != 0 {
				planned = 0
				manager.SetSchedule(rotation)
			}
		})
	}

	// Sample concurrent-link counts once a second (Section 4.4); finalize
	// turns the tally into Result.LinkSeconds.
	c.linkSeconds = make([]int, len(c.drv.VIFs())+1)
	eng.Ticker(statsBucket, func() {
		c.linkSeconds[manager.NumActiveLinks()]++
	})
}

// classifyOutage attributes a fresh outage to a cause, in precedence
// order: an injected fault active right now ("chaos-fault:<cause>"), a
// link demoted for an expiring lease ("lease-expiry"), no joinable AP in
// radio range ("out-of-range"), every visible open AP's address plane dry
// ("ipam-exhausted" — the radio is fine, the pools ran out), and otherwise
// "contention" — APs are visible and healthy but the join pipeline lost
// the race for them.
func (c *Client) classifyOutage(l *lmm.Link) string {
	if cause := c.s.activeFaultCause(); cause != "" {
		return "chaos-fault:" + cause
	}
	if l.DownCause == "lease-expiry" {
		return "lease-expiry"
	}
	open, starved := false, true
	for _, e := range c.drv.ScanTable() {
		if !e.Open {
			continue
		}
		open = true
		a := c.s.aps[e.BSSID]
		if a == nil || a.Crashed() || !a.DHCPServer().Exhausted() {
			starved = false
		}
	}
	switch {
	case !open:
		return "out-of-range"
	case starved:
		return "ipam-exhausted"
	default:
		return "contention"
	}
}

// startFlow opens one TCP download of total bytes (negative for unbounded)
// through the link; onDone (optional) fires when a finite flow completes.
func (c *Client) startFlow(l *lmm.Link, total int64, onDone func()) *flow {
	s, eng := c.s, c.s.eng
	access := s.aps[l.BSSID]
	if access == nil {
		return nil
	}
	serverIP := c.nextServerIP()
	f := &flow{serverIP: serverIP, access: access, link: l}
	lease := l.Lease
	f.rcv = tcpsim.NewReceiver(eng,
		func(seg tcpsim.Segment) {
			l.Send(ipnet.Packet{Proto: ipnet.ProtoTCP, TTL: ipnet.DefaultTTL,
				Src: lease.IP, Dst: serverIP, TCP: seg})
		},
		func(n int, at sim.Time) {
			c.series.Add(at, float64(n))
			c.res.BytesReceived += int64(n)
			s.cfg.Telemetry.AddGoodput(c.id, at, n)
		})
	f.snd = tcpsim.NewSender(eng,
		func(seg tcpsim.Segment) {
			access.FromInternet(ipnet.Packet{Proto: ipnet.ProtoTCP, TTL: ipnet.DefaultTTL,
				Src: serverIP, Dst: lease.IP, TCP: seg})
		}, func() {
			delete(s.flows, serverIP)
			if onDone != nil {
				onDone()
			}
		})
	l.OnPacket = func(p ipnet.Packet) {
		if p.Proto == ipnet.ProtoTCP && p.Src == serverIP {
			f.rcv.Deliver(p.TCP)
		}
	}
	if tel := s.cfg.Telemetry; tel != nil {
		f.snd.OnRTT = func(at, sample sim.Time) { tel.AddRTT(c.id, at, sample) }
	}
	if c.allocPace > 0 {
		f.snd.SetPaceBps(c.allocPace)
	}
	s.flows[serverIP] = f
	f.snd.Start(total)
	return f
}

// serverIPOwner inverts nextServerIP's carve: the client ID a flow server
// address belongs to, or -1 for an address outside the flow ranges.
func serverIPOwner(ip ipnet.Addr) int {
	switch byte(ip >> 24) {
	case 203:
		return int(byte(ip >> 16))
	case 204:
		return 256 + int(byte(ip>>16))<<8 + int(byte(ip>>8))
	}
	return -1
}

// stopLinkFlows stops every flow of this client riding the given link.
func (c *Client) stopLinkFlows(l *lmm.Link) {
	// Stop in address order: Stop may touch the event queue, and the
	// teardown order must not depend on map iteration for determinism.
	var ips []ipnet.Addr
	for ip, f := range c.s.flows {
		if f.link == l {
			ips = append(ips, ip)
		}
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	for _, ip := range ips {
		c.s.flows[ip].snd.Stop()
		delete(c.s.flows, ip)
	}
}

// StartFlows opens one bulk TCP download of total bytes (non-positive for
// unbounded) on each of the client's currently active links and returns
// how many flows started. Links are walked in the manager's deterministic
// order, so replaying a start-flow intent at the same virtual time
// reproduces the same transfers. Zero when the stack isn't built yet or
// no link is up — the serve API reports that back to the caller.
func (c *Client) StartFlows(total int64) int {
	if c.manager == nil {
		return 0
	}
	if total <= 0 {
		total = -1
	}
	n := 0
	for _, l := range c.manager.ActiveLinks() {
		if c.startFlow(l, total, nil) != nil {
			n++
		}
	}
	return n
}

// StopFlows stops every flow the client currently has in the air, across
// all links, and returns how many were stopped.
func (c *Client) StopFlows() int {
	if c.manager == nil {
		return 0
	}
	// A client's flows are identified by its private server-IP block
	// (nextServerIP); collect first since Stop mutates the shared map.
	var ips []ipnet.Addr
	for ip := range c.s.flows {
		if c.ownsServerIP(ip) {
			ips = append(ips, ip)
		}
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	for _, ip := range ips {
		c.s.flows[ip].snd.Stop()
		delete(c.s.flows, ip)
	}
	return len(ips)
}

// finalize computes the client's Result after the engine has run. Rates
// and averages normalize over the engine clock where the run actually
// stopped — identical to the configured duration for a batch Run, and the
// true horizon for a serve-mode world finalized mid-stream.
func (c *Client) finalize() Result {
	s := c.s
	res := c.res
	dur := s.eng.Now()
	res.Duration = dur
	res.ThroughputKBps = float64(res.BytesReceived) / 1024 / dur.Seconds()
	res.Connectivity = c.series.ConnectivityFraction(dur)
	res.ConnectionDurations = c.series.ConnectionDurations(dur)
	res.DisruptionDurations = c.series.DisruptionDurations(dur)
	for _, r := range c.series.NonzeroRates(dur) {
		res.InstRatesKBps = append(res.InstRatesKBps, r/1024)
	}
	for _, r := range c.series.Rates(dur) {
		res.PerSecondKBps = append(res.PerSecondKBps, r/1024)
	}
	if s.inj != nil {
		res.Chaos = s.inj.Stats()
	}
	for _, inj := range s.extraInj {
		res.Chaos.Add(inj.Stats())
	}
	res.Medium = s.medium.Stats()
	res.LinkSeconds = map[int]int{}
	for k, secs := range c.linkSeconds {
		if secs > 0 {
			res.LinkSeconds[k] = secs
		}
	}
	if c.manager == nil {
		// Stack never built (StartOffset beyond the run): an all-zero
		// result with only world-level counters.
		return res
	}
	res.Joins = c.manager.Joins()
	res.LMM = c.manager.Stats()
	res.Driver = c.drv.Stats()
	res.Energy = energy.Compute(c.drv.TxAirtime(), c.drv.SwitchTime(), dur)
	res.EnergyPerBitMicroJ = res.Energy.PerBitMicroJ(res.BytesReceived)
	return res
}
