// Package lmm implements Spider's user-space Link Management Module: it
// drives the virtual Wi-Fi driver, selecting APs by join-success utility
// (design choice 2 of the paper), running the three-step join pipeline
// (link-layer association, DHCP with per-BSSID lease caching, end-to-end
// connectivity test), monitoring liveness with 10 pings/s, and recycling
// interfaces when connections die.
package lmm

import (
	"spider/internal/alloc"
	"spider/internal/dhcp"
	"spider/internal/dot11"
	"spider/internal/driver"
	"spider/internal/ipnet"
	"spider/internal/obs"
	"spider/internal/sim"
)

// Config tunes the module. Zero fields take defaults.
type Config struct {
	// Schedule is the operation mode: the channel schedule handed to the
	// driver. A single slot means single-channel operation.
	Schedule []driver.Slot
	// SingleAP caps the module at one concurrent connection (the paper's
	// single-AP configurations).
	SingleAP bool
	// ParkOnConnect pins the driver to the connected AP's channel while a
	// link is up and restores the configured scan schedule once all links
	// drop. Combined with SingleAP and default timers this reproduces a
	// stock MadWiFi-style driver.
	ParkOnConnect bool
	// DHCP configures the DHCP client timers.
	DHCP dhcp.ClientConfig
	// UseLeaseCache enables per-BSSID cached leases (DHCP fast path).
	UseLeaseCache bool
	// PingInterval is the liveness probe period (paper: 100 ms).
	PingInterval sim.Time
	// PingFailLimit is the consecutive-failure threshold (paper: 30).
	PingFailLimit int
	// ReselectInterval is how often idle interfaces look for APs.
	ReselectInterval sim.Time
	// FailureBackoff blocks re-attempts to an AP after a failed join
	// (stock DHCP clients idle for 60 s; Spider uses a short backoff).
	// Consecutive failures grow it (see noteFailure).
	FailureBackoff sim.Time
	// GlobalDHCPBackoff makes a DHCP failure suppress ALL join attempts
	// for FailureBackoff, as a stock dhclient does when it goes idle
	// after a failed acquisition. Spider's per-interface clients leave
	// this off.
	GlobalDHCPBackoff bool
	// TestTarget is the address pinged by the end-to-end connectivity
	// test after DHCP binds. Zero means ping the gateway, which cannot
	// detect captive portals; the paper's Spider pings an external host
	// and falls back to the gateway only when ICMP is filtered.
	TestTarget ipnet.Addr
	// SelectByRSSIOnly disables the join-history utility and ranks
	// candidates purely by signal strength, as a stock driver does.
	SelectByRSSIOnly bool
	// Alloc, when non-nil, swaps the selfish utility ranking for the
	// decentralized proportional-fair policy: candidates rank by estimated
	// rate over sensed channel load, concurrent links cap at the policy's
	// MaxLinks, and each reselect pass feeds the driver's carrier-sense
	// readings into the policy. Nil keeps the legacy heuristic
	// byte-identical.
	Alloc *alloc.Policy
	// Events, when non-nil, receives the module's structured timeline
	// (join pipeline stages, DHCP message arrivals, lease renewals).
	Events *obs.ClientLog
}

// DefaultConfig returns Spider's deployed settings: single channel 1,
// reduced timers, lease caching on.
func DefaultConfig() Config {
	return Config{
		Schedule:         []driver.Slot{{Channel: dot11.Channel1}},
		DHCP:             dhcp.ReducedClientConfig(200 * 1000 * 1000),
		UseLeaseCache:    true,
		PingInterval:     100 * 1000 * 1000,
		PingFailLimit:    30,
		ReselectInterval: 100 * 1000 * 1000,
		FailureBackoff:   5 * 1000 * 1000 * 1000,
	}
}

const (
	// pingTimeout is how long a probe may remain unanswered.
	pingTimeout sim.Time = 500 * 1000 * 1000 // 500 ms
	// minRSSI filters scan entries with insufficient signal.
	minRSSI = -96
	// va, vb, vc are the join-score values for reaching association,
	// DHCP, and end-to-end connectivity respectively (va < vb < vc).
	va, vb, vc = 0.3, 0.6, 1.0
	// recencyAlpha is the exponential weight given to the newest join
	// attempt when updating utility.
	recencyAlpha = 0.3
	// backoffFactor multiplies the per-BSSID backoff on each consecutive
	// join failure: the exponential blacklist that keeps a crashed AP
	// from monopolising join attempts.
	backoffFactor = 2
	// maxBackoff caps the grown per-BSSID backoff, unless FailureBackoff
	// is longer (see noteFailure).
	maxBackoff sim.Time = 60 * 1000 * 1000 * 1000 // 60 s
)

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if len(c.Schedule) == 0 {
		c.Schedule = d.Schedule
	}
	if c.DHCP.RetryTimeout <= 0 {
		c.DHCP = d.DHCP
	}
	if c.PingInterval <= 0 {
		c.PingInterval = d.PingInterval
	}
	if c.PingFailLimit <= 0 {
		c.PingFailLimit = d.PingFailLimit
	}
	if c.ReselectInterval <= 0 {
		c.ReselectInterval = d.ReselectInterval
	}
	if c.FailureBackoff <= 0 {
		c.FailureBackoff = d.FailureBackoff
	}
	return c
}

// JoinStage records how far a join attempt progressed.
type JoinStage uint8

// Stages in order of progress.
const (
	StageAssocFailed JoinStage = iota
	StageDHCPFailed
	StagePingFailed
	StageComplete
)

func (s JoinStage) String() string {
	switch s {
	case StageAssocFailed:
		return "assoc-failed"
	case StageDHCPFailed:
		return "dhcp-failed"
	case StagePingFailed:
		return "ping-failed"
	case StageComplete:
		return "complete"
	}
	return "unknown"
}

// JoinRecord captures the timing of one join attempt; the evaluation's
// Figures 5, 6, 14, 15 and Table 3 are built from these.
type JoinRecord struct {
	BSSID     dot11.MACAddr
	Channel   dot11.Channel
	Start     sim.Time
	Stage     JoinStage
	AssocDur  sim.Time // link-layer association duration (when reached)
	DHCPDur   sim.Time // DHCP acquisition duration (when reached)
	TotalDur  sim.Time // start → final outcome
	UsedCache bool
}

// Link is an established connection through one virtual interface. The
// upper layer (package core) attaches its packet handler and sends through
// it; it corresponds to the per-AP Linux interface Spider exposes.
type Link struct {
	VIF   *driver.VIF
	BSSID dot11.MACAddr
	SSID  string
	Lease dhcp.Lease
	Since sim.Time

	// OnPacket receives non-DHCP, non-liveness packets for this link.
	OnPacket func(ipnet.Packet)

	// DownCause names why the link went down ("ping-timeout",
	// "lease-expiry", "schedule-change"), set before the OnLinkDown
	// callback so outage attribution can read it.
	DownCause string

	conn *conn
}

// Send transmits an IP packet through the link's interface.
func (l *Link) Send(p ipnet.Packet) { l.VIF.SendPacket(p) }

// Up reports whether the link is still established.
func (l *Link) Up() bool { return l.conn != nil && l.conn.state == connUp }

type connState uint8

const (
	connIdle connState = iota
	connAssoc
	connDHCP
	connPing
	connUp
)

// conn is the per-VIF controller. Every client has one per interface, so
// the small fields are packed.
type conn struct {
	m   *LMM
	vif *driver.VIF

	state   connState
	channel dot11.Channel
	bssid   dot11.MACAddr
	ssid    string

	started  sim.Time // join start
	assocDur sim.Time
	dhcpDur  sim.Time

	dhcpCli  *dhcp.Client
	lease    dhcp.Lease
	cacheHit bool
	pingSeq  uint16
	link     *Link
	// live holds an established link's liveness state; nil unless the
	// conn is up.
	live *liveness

	// joinSpan is the attempt's Join root span; testSpan the open
	// conn-test child. Both nil when recording is off or no join runs.
	joinSpan *obs.ActiveSpan
	testSpan *obs.ActiveSpan

	testAttempts int
	// testRetry re-sends the conn test's ping every pingTimeout. Each conn
	// test re-arms it, so a retry left pending by an earlier join on this
	// conn moves rather than firing into the new test.
	testRetry sim.Timer
}

// connTestRetry is a conn as its test-retry timer's Runnable: binding the
// conn itself, not a method value, keeps a closure per interface off the
// heap.
type connTestRetry conn

func (c *connTestRetry) RunEvent() { (*conn)(c).sendTestPing() }

// liveness is an established link's monitoring state, allocated at goUp
// and dropped at down: the 10 Hz ping ticker, the run of unanswered pings,
// the lease-renewal timer and one timeout per outstanding ping.
type liveness struct {
	pinger  *sim.Ticker
	fails   int
	renewal sim.Timer
	// pings is a ring of ping timeouts, slot seq&(len-1). Its length is a
	// power of two, so the mask survives the uint16 sequence wrap, and
	// spans more than pingTimeout of pings, so a slot's previous timeout
	// has fired or stopped before the slot is reused.
	pings []pingDeadline
}

// ping returns the ring slot of the ping with sequence seq.
func (l *liveness) ping(seq uint16) *pingDeadline {
	return &l.pings[int(seq)&(len(l.pings)-1)]
}

// pingDeadline is the liveness timeout of the ping with sequence seq.
type pingDeadline struct {
	timer sim.Timer
	c     *conn
	seq   uint16
}

type utilState struct {
	value float64
	seen  bool
}

// blEntry tracks an AP's consecutive join failures for the exponential
// blacklist.
type blEntry struct {
	streak   int
	lastFail sim.Time
}

// Stats aggregates module counters.
type Stats struct {
	JoinsStarted   int
	JoinsComplete  int
	AssocFailures  int
	DHCPFailures   int
	PingFailures   int
	LinksDropped   int
	CacheHits      int
	CacheFastJoins int
	LeaseRenewals  int // successful in-place DHCP renewals
	RenewalFails   int // failed renewals (each demotes its link)
}

// LMM is the link management module.
type LMM struct {
	eng *sim.Engine
	rng *sim.RNG
	drv *driver.Driver
	cfg Config

	conns        []*conn
	up           int // conns in connUp: goUp counts them in, reset out
	inUse        map[dot11.MACAddr]bool
	utility      map[dot11.MACAddr]*utilState
	backoffUntil map[dot11.MACAddr]sim.Time
	blacklist    map[dot11.MACAddr]*blEntry
	leaseCache   map[dot11.MACAddr]dhcp.Lease
	schedChans   map[dot11.Channel]bool

	joins         []JoinRecord
	stats         Stats
	dhcpCounts    dhcp.Counts
	globalBackoff sim.Time

	// sel runs reselect every ReselectInterval. A pass that starts no
	// join puts it to sleep until the earliest time a pass could start
	// one, and a pinned pass whose target is taken sleeps until woken;
	// every event that can change a pass's outcome sooner — a scan-table
	// write (scanUpdated), a conn reset, SetSchedule, SetAllocTarget —
	// wakes it. Skipped passes keep their tick, so gating changes no
	// output.
	sel *sim.Ticker

	// schedChanList mirrors schedChans in schedule order for the alloc
	// policy's channel-sense pass. allocTarget pins the module to one AP
	// when the centralized allocator steers it; allocPinned marks the pin
	// (a zero target clears it).
	schedChanList []dot11.Channel
	allocTarget   dot11.MACAddr
	allocPinned   bool

	// candScratch and idleScratch back reselect's working sets; the pass
	// runs every ReselectInterval per client, so reusing them keeps the
	// steady-state selection loop allocation-free.
	candScratch []driver.ScanEntry
	idleScratch []*conn

	// OnLinkUp and OnLinkDown notify the upper layer.
	OnLinkUp   func(*Link)
	OnLinkDown func(*Link)
	// OnJoin observes every join attempt's outcome as it is recorded
	// (used by the encounter-history predictor).
	OnJoin func(JoinRecord)
}

// New creates the module and installs the schedule into the driver. It
// begins selecting APs immediately.
func New(eng *sim.Engine, rng *sim.RNG, drv *driver.Driver, cfg Config) *LMM {
	cfg = cfg.withDefaults()
	m := &LMM{
		eng:          eng,
		rng:          rng,
		drv:          drv,
		cfg:          cfg,
		inUse:        make(map[dot11.MACAddr]bool),
		utility:      make(map[dot11.MACAddr]*utilState),
		backoffUntil: make(map[dot11.MACAddr]sim.Time),
		blacklist:    make(map[dot11.MACAddr]*blEntry),
		leaseCache:   make(map[dot11.MACAddr]dhcp.Lease),
		schedChans:   make(map[dot11.Channel]bool),
	}
	// One tally across every DHCP client the module spawns.
	m.cfg.DHCP.Counts = &m.dhcpCounts
	drv.SetSchedule(cfg.Schedule)
	for _, s := range cfg.Schedule {
		if !m.schedChans[s.Channel] {
			m.schedChanList = append(m.schedChanList, s.Channel)
		}
		m.schedChans[s.Channel] = true
	}
	for _, v := range drv.VIFs() {
		c := &conn{m: m, vif: v}
		c.testRetry.Bind(eng, (*connTestRetry)(c))
		m.conns = append(m.conns, c)
	}
	m.sel = eng.Ticker(cfg.ReselectInterval, m.reselect)
	drv.OnScanUpdate = m.scanUpdated
	return m
}

// Stats returns a snapshot of the counters.
func (m *LMM) Stats() Stats { return m.stats }

// DHCPCounts returns the message counts of every DHCP client the module
// has spawned, join and renewal alike.
func (m *LMM) DHCPCounts() dhcp.Counts { return *m.cfg.DHCP.Counts }

// Joins returns the join attempt records collected so far.
func (m *LMM) Joins() []JoinRecord { return append([]JoinRecord(nil), m.joins...) }

// NumActiveLinks returns how many links are established: len(ActiveLinks())
// without building the list.
func (m *LMM) NumActiveLinks() int { return m.up }

// ActiveLinks returns all currently established links.
func (m *LMM) ActiveLinks() []*Link {
	var out []*Link
	for _, c := range m.conns {
		if c.state == connUp {
			out = append(out, c.link)
		}
	}
	return out
}

// noteFailure records a join failure against bssid and arms the
// exponentially grown backoff: FailureBackoff × backoffFactor^(streak-1),
// capped at maxBackoff or at FailureBackoff when that is longer. A streak
// older than twice the cap is forgotten first, so yesterday's outage does
// not penalise today's encounter and decayed history restarts from the
// base backoff.
func (m *LMM) noteFailure(bssid dot11.MACAddr) {
	now := m.eng.Now()
	e := m.blacklist[bssid]
	if e == nil {
		e = &blEntry{}
		m.blacklist[bssid] = e
	}
	limit := max(maxBackoff, m.cfg.FailureBackoff)
	if e.streak > 0 && now-e.lastFail > 2*limit {
		e.streak = 0
	}
	e.streak++
	e.lastFail = now
	backoff := m.cfg.FailureBackoff
	for i := 1; i < e.streak && backoff < limit; i++ {
		backoff *= backoffFactor
	}
	if backoff > limit {
		backoff = limit
	}
	m.backoffUntil[bssid] = now + backoff
}

// Utility returns the current utility for an AP and whether it has history.
func (m *LMM) Utility(bssid dot11.MACAddr) (float64, bool) {
	u, ok := m.utility[bssid]
	if !ok {
		return vc, false
	}
	return u.value, true
}

// SetSchedule switches the operation mode at runtime (used by the adaptive
// extension). Connections to APs on channels no longer scheduled are torn
// down.
func (m *LMM) SetSchedule(slots []driver.Slot) {
	m.cfg.Schedule = append([]driver.Slot(nil), slots...)
	m.drv.SetSchedule(slots)
	m.schedChans = make(map[dot11.Channel]bool)
	m.schedChanList = m.schedChanList[:0]
	for _, s := range slots {
		if !m.schedChans[s.Channel] {
			m.schedChanList = append(m.schedChanList, s.Channel)
		}
		m.schedChans[s.Channel] = true
	}
	for _, c := range m.conns {
		if c.state != connIdle && !m.schedChans[c.channel] {
			c.abort()
		}
	}
	m.sel.Wake()
}

// scoreJoin folds a join outcome into the AP's utility.
func (m *LMM) scoreJoin(bssid dot11.MACAddr, stage JoinStage) {
	var score float64
	switch stage {
	case StageAssocFailed:
		score = 0
	case StageDHCPFailed:
		score = va
	case StagePingFailed:
		score = vb
	case StageComplete:
		score = vc
	}
	u, ok := m.utility[bssid]
	if !ok {
		// First real outcome replaces the optimistic bootstrap entirely.
		m.utility[bssid] = &utilState{value: score, seen: true}
		return
	}
	u.value = (1-recencyAlpha)*u.value + recencyAlpha*score
	u.seen = true
}

// rankBefore orders candidate APs: the alloc policy's PF score when one is
// installed, else utility first (unknown APs bootstrap at max); RSSI breaks
// ties, BSSID is the deterministic final tiebreak. Every branch bottoms out
// at the unique BSSID, so the order is strictly total regardless of the
// scan table's arrival order.
func (m *LMM) rankBefore(a, b driver.ScanEntry) bool {
	if m.cfg.Alloc != nil {
		sa := m.cfg.Alloc.Score(a.BSSID, a.Channel, a.RSSI)
		sb := m.cfg.Alloc.Score(b.BSSID, b.Channel, b.RSSI)
		if sa != sb {
			return sa > sb
		}
	} else if !m.cfg.SelectByRSSIOnly {
		ua, _ := m.Utility(a.BSSID)
		ub, _ := m.Utility(b.BSSID)
		if ua != ub {
			return ua > ub
		}
	}
	if a.RSSI != b.RSSI {
		return a.RSSI > b.RSSI
	}
	return a.BSSID.Less(b.BSSID)
}

// maxActive returns the concurrent-link cap the current policy imposes;
// len(conns) means no cap beyond the interface count.
func (m *LMM) maxActive() int {
	if m.cfg.SingleAP {
		return 1
	}
	if m.cfg.Alloc != nil {
		return m.cfg.Alloc.MaxLinks()
	}
	return len(m.conns)
}

// SetAllocTarget pins the module to one AP chosen by the centralized
// allocator: reselect only joins the target, and a live link to any other
// AP is steered down once the target is in range. A zero BSSID clears the
// pin, returning reselect to its configured ranking.
func (m *LMM) SetAllocTarget(bssid dot11.MACAddr) {
	m.allocTarget = bssid
	m.allocPinned = bssid != (dot11.MACAddr{})
	m.sel.Wake()
}

// scanUpdated wakes the reselect ticker after a scan-table write, unless
// the module is pinned to a target that is already joining or joined:
// reselect then returns before it reads the table, and only a conn reset
// or SetAllocTarget, which both wake the ticker, can change that.
func (m *LMM) scanUpdated() {
	if m.allocPinned && m.inUse[m.allocTarget] {
		return
	}
	m.sel.Wake()
}

// steerToTarget tears down connections to APs other than the pinned target
// once the target is actually joinable — tearing down earlier would strand
// the client between the AP it had and the AP it cannot reach yet. The
// caller has checked that the target is not already joining or joined.
func (m *LMM) steerToTarget(now sim.Time) {
	visible := false
	for _, e := range m.drv.ScanTable() {
		if e.BSSID == m.allocTarget && e.Open && m.schedChans[e.Channel] &&
			e.RSSI >= minRSSI && m.backoffUntil[e.BSSID] <= now {
			visible = true
			break
		}
	}
	if !visible {
		return
	}
	for _, c := range m.conns {
		if c.state == connIdle || c.bssid == m.allocTarget {
			continue
		}
		if c.state == connUp {
			c.link.DownCause = "alloc-steer"
			c.down(true)
		} else {
			c.abort()
		}
	}
}

// reselect assigns idle interfaces to the best candidate APs.
func (m *LMM) reselect() {
	now := m.eng.Now()
	if m.cfg.Alloc != nil {
		// Refresh the policy's channel-load inference at the reselect
		// cadence — the same carrier-sense pass a real station's firmware
		// performs while scanning.
		m.cfg.Alloc.Observe(now, m.drv.ChannelAirtime, m.drv.ChannelContenders, m.schedChanList)
	}
	if m.allocPinned {
		if m.inUse[m.allocTarget] {
			// The target is joining or joined, so steering and the
			// candidate scan both pass over it: no pass can start, abort
			// or tear down anything until a conn reset frees the target
			// or SetAllocTarget moves the pin, and both wake the ticker.
			if m.cfg.Alloc == nil {
				m.sel.SleepUntil(sim.Infinity)
			}
			return
		}
		m.steerToTarget(now)
	}
	active := 0
	idle := m.idleScratch[:0]
	for _, c := range m.conns {
		if c.state == connIdle {
			idle = append(idle, c)
		} else {
			active++
		}
	}
	m.idleScratch = idle
	// A pass that starts nothing may put the ticker to sleep only when
	// every input it read wakes it on change. Observe runs every pass,
	// steering toward a free target reads the scan table, and the parked
	// channel filter reads the driver's rotation, so those configurations
	// always poll.
	gated := m.cfg.Alloc == nil && !m.allocPinned && !(m.cfg.ParkOnConnect && active > 0)
	if len(idle) == 0 || active >= m.maxActive() {
		if gated {
			m.sel.SleepUntil(sim.Infinity) // until a conn resets
		}
		return
	}
	if now < m.globalBackoff {
		if gated {
			m.sel.SleepUntil(m.globalBackoff)
		}
		return // stock dhclient idling after a failed acquisition
	}
	wake := sim.Infinity // the earliest backoff expiry that yields a candidate
	cands := m.candScratch[:0]
	for _, e := range m.drv.ScanTable() {
		if !e.Open || !m.schedChans[e.Channel] || e.RSSI < minRSSI || m.inUse[e.BSSID] {
			continue
		}
		if m.allocPinned && e.BSSID != m.allocTarget {
			continue // centrally steered: only the assigned AP is eligible
		}
		if m.cfg.ParkOnConnect && active > 0 && e.Channel != m.drv.CurrentChannel() {
			continue // parked on a live link's channel; don't join elsewhere
		}
		if until := m.backoffUntil[e.BSSID]; until > now {
			wake = min(wake, until)
			continue
		}
		cands = append(cands, e)
	}
	m.candScratch = cands
	if len(cands) == 0 && gated {
		m.sel.SleepUntil(wake)
	}
	// Insertion sort under rankBefore: the comparator is a strict total
	// order (BSSIDs are unique), so the result matches any correct sort,
	// and small candidate sets stay closure- and interface-free.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && m.rankBefore(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	for _, e := range cands {
		if len(idle) == 0 {
			break
		}
		if active >= m.maxActive() {
			break
		}
		c := idle[0]
		idle = idle[1:]
		active++
		c.startJoin(e)
	}
}

// startJoin begins the three-step pipeline for a selected AP.
func (c *conn) startJoin(e driver.ScanEntry) {
	m := c.m
	m.stats.JoinsStarted++
	m.inUse[e.BSSID] = true
	c.state = connAssoc
	c.bssid = e.BSSID
	c.ssid = e.SSID
	c.channel = e.Channel
	c.started = m.eng.Now()
	c.cacheHit = false
	if m.cfg.Events.Enabled() {
		m.cfg.Events.Emit(obs.Event{
			At:      m.eng.Now(),
			Kind:    obs.KindJoinStart,
			BSSID:   e.BSSID.String(),
			Channel: int(e.Channel),
		})
	}
	c.joinSpan = m.cfg.Events.StartSpan(m.eng.Now(), "join")
	if c.joinSpan != nil {
		c.joinSpan.SetBSSID(e.BSSID.String())
		c.joinSpan.SetChannel(int(e.Channel))
	}
	c.vif.Span = c.joinSpan
	if m.cfg.ParkOnConnect {
		// A stock driver stops scanning and camps on the candidate's
		// channel for the whole join, not just once the link is up.
		m.drv.SetSchedule([]driver.Slot{{Channel: e.Channel}})
	}
	c.vif.OnPacket = c.onPacket
	c.vif.OnJoinResult = func(ok bool) {
		if c.state != connAssoc {
			return
		}
		if !ok {
			m.stats.AssocFailures++
			c.finishJoin(StageAssocFailed)
			return
		}
		c.assocDur = m.eng.Now() - c.started
		c.startDHCP()
	}
	c.vif.Associate(e.BSSID, e.Channel)
}

func (c *conn) startDHCP() {
	m := c.m
	c.state = connDHCP
	dhcpStart := m.eng.Now()
	var cached *dhcp.Lease
	if m.cfg.UseLeaseCache {
		if l, ok := m.leaseCache[c.bssid]; ok {
			cached = &l
			c.cacheHit = true
			m.stats.CacheHits++
		}
	}
	c.dhcpCli = dhcp.NewClient(m.eng, m.rng.Stream("dhcp"), m.cfg.DHCP, m.drv.MAC(),
		c.dhcpSend,
		func(lease dhcp.Lease, ok bool) {
			if c.state != connDHCP {
				return
			}
			if !ok {
				m.stats.DHCPFailures++
				c.finishJoin(StageDHCPFailed)
				return
			}
			c.dhcpDur = m.eng.Now() - dhcpStart
			c.lease = lease
			if m.cfg.UseLeaseCache {
				m.leaseCache[c.bssid] = lease
				if c.cacheHit {
					m.stats.CacheFastJoins++
				}
			}
			c.startConnTest()
		})
	c.dhcpCli.Span = c.joinSpan
	c.dhcpCli.Start(cached)
}

// dhcpSend broadcasts a DHCP client message through the interface.
func (c *conn) dhcpSend(msg dhcp.Message) {
	c.vif.SendPacket(ipnet.Packet{
		Proto: ipnet.ProtoUDP, TTL: ipnet.DefaultTTL,
		Src: ipnet.Unspecified, Dst: ipnet.BroadcastAddr,
		UDP: ipnet.UDP{SrcPort: ipnet.PortDHCPClient, DstPort: ipnet.PortDHCPServer, Payload: msg.Bytes()},
	})
}

// armRenewal schedules a DHCP renewal at half the lease lifetime, the
// T1 timer of RFC 2131. Without it the client would keep using an
// address the server may hand to someone else once LeaseSecs elapses.
func (c *conn) armRenewal() {
	if c.lease.LeaseSecs == 0 {
		return
	}
	life := sim.Time(c.lease.LeaseSecs) * 1000 * 1000 * 1000
	c.live.renewal.Reset(life / 2)
}

// renewLease re-requests the bound lease in place. Success refreshes the
// lease (and cache) and re-arms the timer; failure demotes the link so
// the module fails over instead of riding an expiring address.
func (c *conn) renewLease() {
	if c.state != connUp {
		return
	}
	m := c.m
	cached := c.lease
	c.dhcpCli = dhcp.NewClient(m.eng, m.rng.Stream("dhcp"), m.cfg.DHCP, m.drv.MAC(),
		c.dhcpSend,
		func(lease dhcp.Lease, ok bool) {
			if c.state != connUp {
				return
			}
			if !ok {
				m.stats.RenewalFails++
				if m.cfg.Events.Enabled() {
					m.cfg.Events.Emit(obs.Event{
						At:    m.eng.Now(),
						Kind:  obs.KindDHCPRenew,
						BSSID: c.bssid.String(),
						Note:  "failed",
					})
				}
				if c.link != nil {
					c.link.DownCause = "lease-expiry"
				}
				c.down(true)
				return
			}
			m.stats.LeaseRenewals++
			if m.cfg.Events.Enabled() {
				m.cfg.Events.Emit(obs.Event{
					At:    m.eng.Now(),
					Kind:  obs.KindDHCPRenew,
					BSSID: c.bssid.String(),
					Note:  "ok",
				})
			}
			c.lease = lease
			if c.link != nil {
				c.link.Lease = lease
			}
			if m.cfg.UseLeaseCache {
				m.leaseCache[c.bssid] = lease
			}
			c.armRenewal()
		})
	c.dhcpCli.Start(&cached)
}

// startConnTest verifies end-to-end connectivity with gateway pings before
// declaring the link up.
func (c *conn) startConnTest() {
	c.state = connPing
	c.testAttempts = 0
	c.testSpan = c.joinSpan.StartChild(c.m.eng.Now(), "conn-test")
	c.sendTestPing()
}

func (c *conn) sendTestPing() {
	m := c.m
	if c.state != connPing {
		return
	}
	if c.testAttempts >= 10 {
		m.stats.PingFailures++
		c.finishJoin(StagePingFailed)
		return
	}
	c.testAttempts++
	target := m.cfg.TestTarget
	if target.IsUnspecified() {
		target = c.lease.Server
	}
	c.sendPingTo(target)
	// Retry every pingTimeout until an answer arrives or attempts cap.
	c.testRetry.Reset(pingTimeout)
}

func (c *conn) sendPing() { c.sendPingTo(c.lease.Server) }

func (c *conn) sendPingTo(target ipnet.Addr) {
	c.pingSeq++
	seq := c.pingSeq
	ping := ipnet.EchoRequestPacket(c.lease.IP, target, uint16(c.vif.ID()), seq)
	c.vif.SendPacket(ping)
	// Arm the liveness timeout for this probe (used in the up state).
	if c.state == connUp {
		p := c.live.ping(seq)
		p.seq = seq
		p.timer.Reset(pingTimeout)
	}
}

// RunEvent counts an unanswered ping and drops the link at the limit.
func (p *pingDeadline) RunEvent() {
	c := p.c
	c.live.fails++
	if c.live.fails >= c.m.cfg.PingFailLimit && c.state == connUp {
		c.m.stats.LinksDropped++
		c.link.DownCause = "ping-timeout"
		c.down(true)
	}
}

// newLiveness builds a link's monitoring state, its timers bound but
// disarmed.
func (c *conn) newLiveness() *liveness {
	eng := c.m.eng
	n := 1
	for sim.Time(n)*c.m.cfg.PingInterval <= pingTimeout {
		n *= 2
	}
	l := &liveness{pings: make([]pingDeadline, n)}
	l.renewal.Bind(eng, sim.Func(c.renewLease))
	for i := range l.pings {
		p := &l.pings[i]
		p.c = c
		p.timer.Bind(eng, p)
	}
	return l
}

// finishJoin records a terminal join outcome (success handled in goUp).
func (c *conn) finishJoin(stage JoinStage) {
	m := c.m
	rec := JoinRecord{
		BSSID:     c.bssid,
		Channel:   c.channel,
		Start:     c.started,
		Stage:     stage,
		AssocDur:  c.assocDur,
		DHCPDur:   c.dhcpDur,
		TotalDur:  m.eng.Now() - c.started,
		UsedCache: c.cacheHit,
	}
	m.joins = append(m.joins, rec)
	if m.cfg.Events.Enabled() {
		m.cfg.Events.Emit(obs.Event{
			At:      m.eng.Now(),
			Kind:    obs.KindJoinFail,
			BSSID:   c.bssid.String(),
			Channel: int(c.channel),
			Value:   int64(rec.TotalDur),
			Note:    stage.String(),
		})
	}
	c.testSpan.EndStatus(m.eng.Now(), stage.String())
	c.testSpan = nil
	c.joinSpan.EndStatus(m.eng.Now(), stage.String())
	c.joinSpan = nil
	if m.OnJoin != nil {
		m.OnJoin(rec)
	}
	m.scoreJoin(c.bssid, stage)
	m.noteFailure(c.bssid)
	if m.cfg.GlobalDHCPBackoff && stage == StageDHCPFailed {
		m.globalBackoff = m.eng.Now() + m.cfg.FailureBackoff
	}
	c.reset()
	if m.cfg.ParkOnConnect && m.up == 0 {
		m.drv.SetSchedule(m.cfg.Schedule)
	}
}

func (c *conn) goUp() {
	m := c.m
	m.stats.JoinsComplete++
	rec := JoinRecord{
		BSSID:     c.bssid,
		Channel:   c.channel,
		Start:     c.started,
		Stage:     StageComplete,
		AssocDur:  c.assocDur,
		DHCPDur:   c.dhcpDur,
		TotalDur:  m.eng.Now() - c.started,
		UsedCache: c.cacheHit,
	}
	m.joins = append(m.joins, rec)
	if m.cfg.Events.Enabled() {
		m.cfg.Events.Emit(obs.Event{
			At:      m.eng.Now(),
			Kind:    obs.KindJoinComplete,
			BSSID:   c.bssid.String(),
			Channel: int(c.channel),
			Value:   int64(rec.TotalDur),
		})
	}
	c.testSpan.EndStatus(m.eng.Now(), "ok")
	c.testSpan = nil
	c.joinSpan.EndStatus(m.eng.Now(), "complete")
	c.joinSpan = nil
	if m.OnJoin != nil {
		m.OnJoin(rec)
	}
	m.scoreJoin(c.bssid, StageComplete)
	delete(m.blacklist, c.bssid) // success forgives the failure streak
	c.state = connUp
	m.up++
	c.link = &Link{
		VIF:   c.vif,
		BSSID: c.bssid,
		SSID:  c.ssid,
		Lease: c.lease,
		Since: m.eng.Now(),
		conn:  c,
	}
	c.live = c.newLiveness()
	c.live.pinger = m.eng.Ticker(m.cfg.PingInterval, c.sendPing)
	c.armRenewal()
	if m.cfg.ParkOnConnect {
		m.drv.SetSchedule([]driver.Slot{{Channel: c.channel}})
	}
	if m.OnLinkUp != nil {
		m.OnLinkUp(c.link)
	}
}

// down tears an established link down. notify controls the OnLinkDown
// callback (suppressed during Close).
func (c *conn) down(notify bool) {
	m := c.m
	link := c.link
	if l := c.live; l != nil {
		l.pinger.Stop()
		l.renewal.Stop()
		for i := range l.pings {
			l.pings[i].timer.Stop()
		}
		c.live = nil
	}
	m.backoffUntil[c.bssid] = m.eng.Now() + m.cfg.FailureBackoff
	c.reset()
	if m.cfg.ParkOnConnect && m.up == 0 {
		// All links gone: resume the configured scan rotation.
		m.drv.SetSchedule(m.cfg.Schedule)
	}
	if notify && m.OnLinkDown != nil && link != nil {
		m.OnLinkDown(link)
	}
}

// abort cancels a connection in any state without recording a join outcome
// (used on schedule changes).
func (c *conn) abort() {
	if c.state == connUp {
		c.link.DownCause = "schedule-change"
		c.down(true)
		return
	}
	if c.dhcpCli != nil {
		c.dhcpCli.Stop()
	}
	c.reset()
}

func (c *conn) reset() {
	m := c.m
	// Aborted attempts (schedule change, Close) still hold an open root
	// span; terminal paths already closed theirs, making this a no-op.
	c.testSpan.EndStatus(m.eng.Now(), "aborted")
	c.testSpan = nil
	c.joinSpan.EndStatus(m.eng.Now(), "aborted")
	c.joinSpan = nil
	if c.dhcpCli != nil {
		c.dhcpCli.Stop()
		c.dhcpCli = nil
	}
	delete(m.inUse, c.bssid)
	m.sel.Wake() // an idle conn and a freed BSSID can change the next pass
	c.vif.OnJoinResult = nil
	c.vif.OnPacket = nil
	c.vif.Disassociate()
	if c.state == connUp {
		m.up--
	}
	c.state = connIdle
	c.bssid = dot11.MACAddr{}
	c.link = nil
	c.lease = dhcp.Lease{}
	c.assocDur, c.dhcpDur = 0, 0
}

// onPacket dispatches packets arriving on the interface.
func (c *conn) onPacket(p ipnet.Packet) {
	switch p.Proto {
	case ipnet.ProtoUDP:
		if p.UDP.DstPort != ipnet.PortDHCPClient {
			return
		}
		if msg, err := dhcp.DecodeMessage(p.UDP.Payload); err == nil && c.dhcpCli != nil {
			var kind obs.Kind
			known := true
			switch msg.Type {
			case dhcp.Offer:
				kind = obs.KindDHCPOffer
			case dhcp.Ack:
				kind = obs.KindDHCPAck
			case dhcp.Nak:
				kind = obs.KindDHCPNak
			default:
				known = false
			}
			if known && c.m.cfg.Events.Enabled() {
				c.m.cfg.Events.Emit(obs.Event{
					At:      c.m.eng.Now(),
					Kind:    kind,
					BSSID:   c.bssid.String(),
					Channel: int(c.channel),
				})
			}
			c.dhcpCli.Deliver(msg)
		}
	case ipnet.ProtoICMP:
		if p.Echo.Type == ipnet.ICMPEchoReply && p.Echo.ID == uint16(c.vif.ID()) {
			c.onPingReply(p.Echo.Seq)
			return
		}
		// Foreign ICMP flows to the application.
		if c.state == connUp && c.link.OnPacket != nil {
			c.link.OnPacket(p)
		}
	default:
		if c.state == connUp && c.link.OnPacket != nil {
			c.link.OnPacket(p)
		}
	}
}

func (c *conn) onPingReply(seq uint16) {
	switch c.state {
	case connPing:
		c.goUp()
	case connUp:
		if p := c.live.ping(seq); p.seq == seq {
			p.timer.Stop()
		}
		c.live.fails = 0
	}
}
