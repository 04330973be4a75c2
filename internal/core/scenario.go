package core

import (
	"fmt"
	"sort"

	"spider/internal/alloc"
	"spider/internal/ap"
	"spider/internal/capture"
	"spider/internal/chaos"
	"spider/internal/dhcp"
	"spider/internal/dot11"
	"spider/internal/driver"
	"spider/internal/ipam"
	"spider/internal/ipnet"
	"spider/internal/lmm"
	"spider/internal/obs"
	"spider/internal/phy"
	"spider/internal/sim"
	"spider/internal/tcpsim"
	"spider/internal/telemetry"
)

// flow is one per-link bulk TCP download.
type flow struct {
	serverIP ipnet.Addr
	access   *ap.AP
	link     *lmm.Link
	snd      *tcpsim.Sender
	rcv      *tcpsim.Receiver
}

// Scenario is the shared world of a run: one event engine, one radio
// medium, the deployed APs, and the fault injector, traversed by any number
// of clients. Clients are declared with AddClient and materialized by Run
// in client-ID order, so a run is a pure function of (WorldConfig, set of
// ClientConfigs) — never of AddClient call order.
type Scenario struct {
	cfg        WorldConfig
	clientCfgs []ClientConfig

	eng     *sim.Engine
	rng     *sim.RNG
	medium  *phy.Medium
	aps     map[dot11.MACAddr]*ap.AP
	apList  []*ap.AP
	ipam    *ipam.Manager
	inj     *chaos.Injector
	flows   map[ipnet.Addr]*flow
	clients []*Client
	// byID resolves clients for the allocator's flow-pacing pass (and any
	// other per-ID lookup) without a linear scan.
	byID map[int]*Client
	// allocCtl drives the fairness allocator when WorldConfig.Alloc is set.
	allocCtl *allocController

	// usedIDs guards client-ID uniqueness across Start and every later
	// AddClientNow; extraInj holds fault injectors armed mid-run through
	// InjectPlan (spider-serve intents), counted alongside the primary.
	usedIDs  map[int]bool
	extraInj []*chaos.Injector

	// faultCauses counts the currently-active injected faults per cause
	// label — maintained whenever an injector exists (recording or not),
	// so outage attribution always sees the live fault set.
	faultCauses map[string]int
	// faultSpans holds the open world-scoped fault spans per cause (a
	// stochastic process can overlap its own firings, hence the stack).
	faultSpans map[string][]*obs.ActiveSpan
}

// NewScenario prepares a scenario for the given world. Nothing is built
// until Run; AddClient may be called in any order before it.
func NewScenario(cfg WorldConfig) *Scenario {
	return &Scenario{cfg: cfg.withDefaults()}
}

// AddClient declares one client. It only records the config; the client's
// stack is materialized by Run, in ID order.
func (s *Scenario) AddClient(cfg ClientConfig) {
	s.clientCfgs = append(s.clientCfgs, cfg)
}

// Clients returns the materialized clients in ID order (valid after Run).
func (s *Scenario) Clients() []*Client { return s.clients }

// APs returns the deployed APs in Sites order (valid after Run).
func (s *Scenario) APs() []*ap.AP { return s.apList }

// IPAM returns the world's address manager (valid after Run). Every
// deployed DHCP server allocates through it, so its Stats and Status
// cover the whole population's address plane.
func (s *Scenario) IPAM() *ipam.Manager { return s.ipam }

// DHCPPoolExhausted sums refused-lease counts across every deployed AP
// (valid after Run): the population-scale pool-pressure signal.
func (s *Scenario) DHCPPoolExhausted() int {
	total := 0
	for _, a := range s.apList {
		total += a.DHCPServer().PoolExhausted
	}
	return total
}

// Run materializes the world and every declared client, executes the
// scenario to completion, and returns one Result per client in ID order.
// It is a thin compose of the incremental seam below: Start, one StepUntil
// to the configured duration, Finalize.
func (s *Scenario) Run() []Result {
	if len(s.clientCfgs) == 0 {
		panic("core: Scenario.Run with no clients")
	}
	s.Start()
	s.StepUntil(s.cfg.Duration)
	return s.Finalize()
}

// Start materializes the world and every declared client without running
// any virtual time. After Start the scenario is live: StepUntil advances
// it in bounded increments, and AddClientNow / InjectPlan feed it
// replayable external inputs between steps — the seam spider-serve's
// intent log drives. Start with zero declared clients is valid (a serve
// world populated purely through intents).
func (s *Scenario) Start() {
	if s.eng != nil {
		panic("core: Scenario.Start called twice")
	}
	// The telemetry plane aggregates the recorder's event stream; a run
	// that asked for telemetry without a recorder gets a streaming one —
	// every event but the chatty kinds (see obs.Recorder) is delivered to
	// subscribers, nothing retained — so city-scale runs keep O(windows)
	// memory.
	if s.cfg.Telemetry != nil && s.cfg.Obs == nil {
		s.cfg.Obs = obs.NewStreamingRecorder()
	}

	// Bind telemetry before the world exists so no emission can precede
	// its subscriptions.
	s.cfg.Telemetry.Bind(s.cfg.Obs)

	s.buildWorld()
	s.usedIDs = make(map[int]bool, len(s.clientCfgs))
	s.byID = make(map[int]*Client, len(s.clientCfgs))

	// Materialize clients in ID order so AddClient order cannot matter.
	cfgs := make([]ClientConfig, len(s.clientCfgs))
	for i, cc := range s.clientCfgs {
		cfgs[i] = cc.withDefaults()
	}
	sort.SliceStable(cfgs, func(i, j int) bool { return cfgs[i].ID < cfgs[j].ID })
	for _, cc := range cfgs {
		if err := s.materialize(cc); err != nil {
			panic("core: " + err.Error())
		}
	}

	if s.cfg.Alloc != 0 {
		s.allocCtl = newAllocController(s)
		s.eng.Ticker(alloc.Epoch, s.allocCtl.epoch)
	}

	// Drive the telemetry window clock and wire the cumulative-counter
	// probe. The Ticker fires at sim times that are a pure function of the
	// window width, so window closes land identically on every replay.
	if tel := s.cfg.Telemetry; tel != nil {
		tel.SetProbe(s.telemetryProbe)
		s.eng.Ticker(tel.Window(), func() { tel.Tick(s.eng.Now()) })
	}
}

// telemetryProbe snapshots the world's cumulative counters for the
// aggregator's per-window deltas: per-channel airtime and contenders from
// the medium, total collisions and DHCP pool-exhaustion refusals. Runs on
// the sim goroutine.
func (s *Scenario) telemetryProbe() telemetry.Probe {
	p := telemetry.Probe{
		Clients:          len(s.clients),
		CumCollisions:    int64(s.medium.Stats().Collisions),
		CumPoolExhausted: int64(s.DHCPPoolExhausted()),
	}
	chSet := make(map[int]struct{}, 4)
	for _, site := range s.cfg.Sites {
		chSet[int(site.Channel)] = struct{}{}
	}
	chs := make([]int, 0, len(chSet))
	for ch := range chSet {
		chs = append(chs, ch)
	}
	sort.Ints(chs)
	for _, ch := range chs {
		p.Channels = append(p.Channels, telemetry.ChannelProbe{
			Channel:      ch,
			CumAirtimeNS: int64(s.medium.ChannelAirtime(dot11.Channel(ch))),
			Contenders:   s.medium.ChannelContenders(dot11.Channel(ch)),
		})
	}
	return p
}

// materialize admits one defaulted client config into the live world:
// validates its ID and schedule, registers it, and builds its stack (now,
// or at StartOffset if that is still in the future).
func (s *Scenario) materialize(cc ClientConfig) error {
	if err := cc.validate(); err != nil {
		return err
	}
	if s.usedIDs[cc.ID] {
		return fmt.Errorf("duplicate client ID %d", cc.ID)
	}
	s.usedIDs[cc.ID] = true
	c := newClient(s, cc)
	s.clients = append(s.clients, c)
	s.byID[cc.ID] = c
	// Each client's RNG is a pure function of (seed, ID) — Derive
	// consumes no parent state — so neither AddClient order nor the
	// ID set of other clients perturbs a client's random sequence.
	crng := s.rng.Derive(fmt.Sprintf("client-%03d", cc.ID))
	if cc.StartOffset > s.eng.Now() {
		s.eng.ScheduleAt(cc.StartOffset, func() { c.build(crng) })
	} else {
		c.build(crng)
	}
	return nil
}

// StepUntil advances the live scenario to the given absolute virtual time
// and returns the engine clock (t, or the later clock of a scenario
// already past t). Every event scheduled at or before t fires, so t is a
// quiescent barrier: external inputs applied after StepUntil(t) returns
// land deterministically between the event batch at t and everything
// later, which is what makes an intent log replayable.
func (s *Scenario) StepUntil(t sim.Time) sim.Time {
	s.eng.Run(t)
	return s.eng.Now()
}

// Finalize closes run-spanning intervals (open joins, links, outages,
// occupancy, persistent faults) so the span tree exports closed, and
// returns one Result per client in ID order. Metrics that average over
// the run use the clock where the scenario actually stopped, which for a
// batch Run is exactly the configured duration.
func (s *Scenario) Finalize() []Result {
	s.cfg.Obs.CloseOpenSpans(s.eng.Now())
	s.cfg.Telemetry.Finish(s.eng.Now())
	// Mid-run-added clients (AddClientNow) sort into ID order with the
	// declared population.
	sort.SliceStable(s.clients, func(i, j int) bool { return s.clients[i].id < s.clients[j].id })
	// The event summary is world-level — identical in every Result — so
	// compute it once; per-client Summary calls were an O(clients × logs)
	// sweep that dominated dense-population finalization.
	evSum := s.cfg.Obs.Summary()
	results := make([]Result, len(s.clients))
	for i, c := range s.clients {
		results[i] = c.finalize()
		results[i].Events = evSum
	}
	return results
}

// Telemetry returns the scenario's streaming aggregation plane (nil when
// the world was configured without one).
func (s *Scenario) Telemetry() *telemetry.Aggregator { return s.cfg.Telemetry }

// Metrics snapshots the world's counters for /v1/metrics (valid after
// Start). Nothing is pushed anywhere during the run: every value is read
// here from the count its layer already keeps — the medium's Stats, the
// summed driver Stats and LMM DHCP counts, the IPAM Stats and Status, and
// the telemetry plane's window and violation tallies — so a scrape is
// exact at the sim time it runs. Call it on the sim goroutine or a
// quiescent world.
func (s *Scenario) Metrics() []obs.Metric {
	ph := s.medium.Stats()
	var drv driver.Stats
	var dh dhcp.Counts
	for _, c := range s.clients {
		if c.drv == nil {
			continue // StartOffset not reached: no stack yet
		}
		st := c.drv.Stats()
		drv.Switches += st.Switches
		drv.ProbesSent += st.ProbesSent
		drv.TxQueueDrops += st.TxQueueDrops
		n := c.manager.DHCPCounts()
		dh.Acks += n.Acks
		dh.Naks += n.Naks
		dh.Retransmits += n.Retransmits
	}
	ip := s.ipam.Stats()
	ms := []obs.Metric{
		{Name: "phy.frames_sent", Value: int64(ph.FramesSent)},
		{Name: "phy.frames_delivered", Value: int64(ph.FramesDelivered)},
		{Name: "phy.frames_lost", Value: int64(ph.FramesLost)},
		{Name: "phy.collisions", Value: int64(ph.Collisions)},
		{Name: "driver.channel_switches", Value: int64(drv.Switches)},
		{Name: "driver.probes_sent", Value: int64(drv.ProbesSent)},
		{Name: "driver.tx_queue_drops", Value: int64(drv.TxQueueDrops)},
		{Name: "dhcp.acks", Value: dh.Acks},
		{Name: "dhcp.naks", Value: dh.Naks},
		{Name: "dhcp.retransmits", Value: dh.Retransmits},
		{Name: "ipam.allocs", Value: ip.Allocs},
		{Name: "ipam.failovers", Value: ip.Failovers},
		{Name: "ipam.reclaimed", Value: ip.Reclaimed},
		{Name: "ipam.exhausted", Value: ip.Exhausted},
		{Name: "ipam.conflicts", Value: ip.Conflicts},
		{Name: "ipam.leases.reclaimed", Gauge: true, Value: ip.Reclaimed},
	}
	for _, p := range s.ipam.Status() {
		ms = append(ms, obs.Metric{Name: "ipam.pool." + p.Name + ".used", Gauge: true, Value: int64(p.InUse)})
	}
	if tel := s.cfg.Telemetry; tel != nil {
		ms = append(ms,
			obs.Metric{Name: "telemetry.windows_closed", Value: tel.WindowsClosed()},
			obs.Metric{Name: "telemetry.slo_violations", Value: tel.Violations()})
	}
	return ms
}

// Engine exposes the scenario's event engine (valid after Start). Serve
// reads Now and Pending from it: the clock, the queue depth it reports,
// and whether an idle world may block. Mutating the queue directly is the
// scenario's job.
func (s *Scenario) Engine() *sim.Engine { return s.eng }

// ClientByID returns the materialized client with the given ID, or nil.
func (s *Scenario) ClientByID(id int) *Client { return s.byID[id] }

// AddClientNow admits one client into the live, already-started world at
// the current virtual time: its mobility clock and stack start here (any
// configured StartOffset is overridden). The client's random streams
// remain a pure function of (seed, ID), so a run that replays the same
// add at the same virtual time reproduces the original bit-for-bit.
func (s *Scenario) AddClientNow(cfg ClientConfig) error {
	if s.eng == nil {
		return fmt.Errorf("core: AddClientNow before Start")
	}
	cfg.StartOffset = s.eng.Now()
	cc := cfg.withDefaults()
	return s.materialize(cc)
}

// InjectPlan arms a chaos plan against the live world at the current
// virtual time. The plan's event times are absolute virtual times (times
// already in the past clamp to now), and its injector draws from a
// stream derived purely from (seed, injection index), so replaying the
// same plans at the same virtual times reproduces the fault sequence
// exactly. Plans injected here stack with — and are counted alongside —
// the WorldConfig.Chaos plan.
func (s *Scenario) InjectPlan(plan chaos.Plan) error {
	if s.eng == nil {
		return fmt.Errorf("core: InjectPlan before Start")
	}
	if plan.Empty() {
		return fmt.Errorf("core: InjectPlan with empty plan")
	}
	rng := s.rng.Derive(fmt.Sprintf("chaos-inject-%03d", len(s.extraInj)))
	s.extraInj = append(s.extraInj, s.armInjector(plan, rng))
	return nil
}

// buildWorld constructs everything that exists independently of clients:
// medium (+ capture tap), APs, and the fault injector. World RNG streams
// are drawn in a fixed order — phy, one per site, chaos — so world
// randomness is independent of the client population.
func (s *Scenario) buildWorld() {
	cfg := s.cfg
	s.eng = sim.NewEngine()
	s.rng = sim.NewRNG(cfg.Seed)
	s.flows = make(map[ipnet.Addr]*flow)

	s.medium = phy.NewMedium(s.eng, s.rng.Stream("phy"))
	if cfg.PCAP != nil {
		pw := capture.NewWriter(cfg.PCAP)
		s.medium.SetTap(func(_ dot11.Channel, wire []byte, at sim.Time) {
			// Capture failures only surface through the writer's error;
			// frames keep flowing either way.
			_ = pw.WritePacket(at, wire)
		})
	}

	// uplink handles packets that crossed an AP's backhaul: TCP ACKs back
	// to flow senders, and echo requests to the well-known test server
	// (Spider's end-to-end connectivity check).
	uplink := func(src *ap.AP, p ipnet.Packet) {
		switch p.Proto {
		case ipnet.ProtoICMP:
			if p.Dst != TestServerAddr {
				return
			}
			if p.Echo.Type == ipnet.ICMPEchoRequest {
				src.FromInternet(ipnet.EchoReplyPacket(p))
			}
		case ipnet.ProtoTCP:
			if f, ok := s.flows[p.Dst]; ok {
				f.snd.Deliver(p.TCP)
			}
		}
	}

	// Build the address plane, one binding per site.
	var bindings []*ipam.Binding
	var err error
	s.ipam, bindings, err = addressPlane(cfg)
	if err != nil {
		panic("core: " + err.Error())
	}
	s.ipam.SetLog(cfg.Obs.World())

	// Deploy APs. apList keeps Sites order for chaos targeting.
	s.aps = make(map[dot11.MACAddr]*ap.AP, len(cfg.Sites))
	for i, site := range cfg.Sites {
		gw := siteGateway(i)
		apCfg := ap.DefaultConfig(site.SSID, site.Channel, gw)
		apCfg.Open = site.Open
		if site.BackhaulBps > 0 {
			apCfg.Backhaul.RateBps = site.BackhaulBps
		}
		if cfg.AP.DHCPRespMin > 0 {
			apCfg.DHCP.RespDelayMin = cfg.AP.DHCPRespMin
		}
		if cfg.AP.DHCPRespMax > 0 {
			apCfg.DHCP.RespDelayMax = cfg.AP.DHCPRespMax
		}
		if cfg.AP.MgmtDelayMin > 0 {
			apCfg.MgmtDelayMin = cfg.AP.MgmtDelayMin
		}
		if cfg.AP.MgmtDelayMax > 0 {
			apCfg.MgmtDelayMax = cfg.AP.MgmtDelayMax
		}
		if cfg.AP.BackhaulDelay > 0 {
			apCfg.Backhaul.Delay = cfg.AP.BackhaulDelay
		}
		if cfg.AP.BeaconInterval > 0 {
			apCfg.BeaconInterval = cfg.AP.BeaconInterval
		}
		if cfg.AP.LeaseSecs > 0 {
			apCfg.DHCP.LeaseSecs = cfg.AP.LeaseSecs
		}
		if site.DHCPDead {
			// The server exists but never answers inside any client's
			// acquisition window.
			apCfg.DHCP.RespDelayMin = deadDHCPRespMin
			apCfg.DHCP.RespDelayMax = deadDHCPRespMax
		}
		apCfg.BlockWAN = site.Captive
		mac := siteMAC(i)
		apCfg.IPAM = bindings[i]
		apCfg.DHCP.ExpireLeases = !cfg.AP.DisableLeaseExpiry
		sitePos := site.Pos
		var self *ap.AP
		self = ap.New(s.eng, s.rng.Stream(site.SSID), s.medium, sitePos, mac, apCfg,
			func(p ipnet.Packet) { uplink(self, p) })
		s.aps[mac] = self
		s.apList = append(s.apList, self)
	}

	// Fault bookkeeping exists whether or not a plan is armed up front:
	// InjectPlan can arm one mid-run, and outage attribution reads the
	// live fault set either way.
	s.faultCauses = make(map[string]int)
	s.faultSpans = make(map[string][]*obs.ActiveSpan)

	// Arm the fault plan. The injector draws from its own stream and
	// schedules everything up front, so a given (seed, plan) replays the
	// same fault sequence regardless of what else the scenario does.
	if cfg.Chaos != nil && !cfg.Chaos.Empty() {
		s.inj = s.armInjector(*cfg.Chaos, s.rng.Stream("chaos"))
	}
}

// armInjector builds one chaos injector over the deployed APs and wires
// its faults into the scenario's live fault set, outage spans, and event
// timeline. Shared by the up-front WorldConfig.Chaos plan and every
// mid-run InjectPlan.
func (s *Scenario) armInjector(plan chaos.Plan, rng *sim.RNG) *chaos.Injector {
	targets := make([]chaos.Target, len(s.apList))
	for i, a := range s.apList {
		targets[i] = a
	}
	inj := chaos.New(s.eng, rng, plan, targets, s.medium)
	world := s.cfg.Obs.World() // nil log (all no-ops) when recording is off
	inj.OnFault = func(e chaos.Event, aps []int, begin bool) {
		// Track the live fault set first — outage attribution reads it
		// whether or not recording is on. Persistent faults (no
		// revert) stay active for the rest of the run.
		if begin {
			s.faultCauses[e.Cause]++
			span := world.StartSpan(s.eng.Now(), "fault")
			span.SetChannel(int(e.Channel))
			span.SetStatus(e.Cause + ":" + e.Kind.String())
			if span != nil {
				s.faultSpans[e.Cause] = append(s.faultSpans[e.Cause], span)
			}
		} else {
			if s.faultCauses[e.Cause] > 0 {
				s.faultCauses[e.Cause]--
			}
			if stack := s.faultSpans[e.Cause]; len(stack) > 0 {
				stack[0].End(s.eng.Now())
				s.faultSpans[e.Cause] = stack[1:]
			}
		}
		kind := obs.KindFaultEnd
		if begin {
			kind = obs.KindFaultBegin
		}
		// One event per resolved AP keeps the timeline joinable
		// against per-client events by AP index; channel-scoped
		// faults (noise bursts) have no AP and report one event.
		if len(aps) == 0 {
			world.Emit(obs.Event{
				At:      s.eng.Now(),
				Kind:    kind,
				Channel: int(e.Channel),
				Value:   -1,
				Note:    e.Kind.String(),
			})
			return
		}
		for _, idx := range aps {
			world.Emit(obs.Event{
				At:      s.eng.Now(),
				Kind:    kind,
				Channel: int(e.Channel),
				Value:   int64(idx),
				Note:    e.Kind.String(),
			})
		}
	}
	return inj
}

// siteMAC is the BSSID of the AP at site i.
func siteMAC(i int) dot11.MACAddr { return dot11.MAC(uint32(0x100000 + i)) }

// addressPlane builds the world's address manager and binds every site
// to its pool group, in Sites order, which keeps reserved-range carves
// deterministic. An explicit WorldConfig.IPAM declares shared pool
// hierarchies keyed by site Segment; otherwise each AP gets a private
// single-pool group covering the same gw+1..gw+N range the legacy
// per-server carve handed out, so address assignment is byte-identical to
// the pre-ipam stack.
func addressPlane(cfg WorldConfig) (*ipam.Manager, []*ipam.Binding, error) {
	groups := make([]string, len(cfg.Sites))
	var ic ipam.Config
	if cfg.IPAM != nil {
		ic = *cfg.IPAM
		for i, site := range cfg.Sites {
			groups[i] = site.Segment
		}
	} else {
		size := 64
		if cfg.AP.DHCPPoolSize > 0 {
			size = cfg.AP.DHCPPoolSize
		}
		for i := range cfg.Sites {
			gw := siteGateway(i)
			name := fmt.Sprintf("ap%03d", i)
			addrs := make([]ipnet.Addr, size)
			for j := range addrs {
				addrs[j] = gw + ipnet.Addr(j+1)
			}
			ic.Pools = append(ic.Pools, ipam.PoolSpec{Name: name, Addrs: addrs})
			ic.Groups = append(ic.Groups, ipam.GroupSpec{Name: name, Pools: []string{name}})
			groups[i] = name
		}
	}
	m, err := ipam.New(ic)
	if err != nil {
		return nil, nil, err
	}
	bindings := make([]*ipam.Binding, len(cfg.Sites))
	for i, site := range cfg.Sites {
		if bindings[i], err = m.Bind(siteMAC(i).String(), groups[i]); err != nil {
			return nil, nil, fmt.Errorf("site %d (%s): %w", i, site.SSID, err)
		}
	}
	return m, bindings, nil
}

// siteGateway returns site i's gateway address: 10.hi.lo.1 by Sites index,
// giving every AP a distinct /24 regardless of its pool plan.
func siteGateway(i int) ipnet.Addr {
	return ipnet.AddrFrom4(10, byte(i>>8), byte(i), 1)
}

// activeFaultCause returns the lexicographically first live fault cause,
// or "" when no injected fault is active right now.
func (s *Scenario) activeFaultCause() string {
	best := ""
	for cause, n := range s.faultCauses {
		if n > 0 && (best == "" || cause < best) {
			best = cause
		}
	}
	return best
}
