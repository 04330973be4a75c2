// Package core assembles complete Spider scenarios: one shared world (a
// Scenario: engine, radio medium, deployed access points, fault injector)
// traversed by any number of mobile clients (each a Client: radio position,
// virtual driver, link management module, TCP receivers), with bulk TCP
// downloads flowing through every established link. It is the engine behind
// all of the paper's system experiments (Tables 1-4, Figures 5-17) and the
// N-client population studies layered on top of them.
package core

import (
	"fmt"
	"io"
	"time"

	"spider/internal/alloc"
	"spider/internal/chaos"
	"spider/internal/dhcp"
	"spider/internal/dot11"
	"spider/internal/driver"
	"spider/internal/energy"
	"spider/internal/ipam"
	"spider/internal/ipnet"
	"spider/internal/lmm"
	"spider/internal/mobility"
	"spider/internal/obs"
	"spider/internal/phy"
	"spider/internal/sim"
	"spider/internal/telemetry"
)

// Named durations for the timer profiles and controllers below; the
// simulation clock is a time.Duration, so time package constants apply
// directly.
const (
	// statsBucket is the metric bucket width every per-second series uses.
	statsBucket = sim.Time(time.Second)
	// defaultDuration is the experiment length when none is given.
	defaultDuration = sim.Time(30 * time.Minute)
	// defaultSlotDuration is the per-channel dwell of multi-channel
	// schedules (Table 4).
	defaultSlotDuration = sim.Time(200 * time.Millisecond)
	// probeInterval is the driver's active-scan period.
	probeInterval = sim.Time(500 * time.Millisecond)
	// adaptiveCheckInterval is how often the Adaptive controller samples
	// the client's speed.
	adaptiveCheckInterval = sim.Time(time.Second)
	// adaptiveSpeedThreshold is the Adaptive controller's single-channel
	// cutover speed in m/s, the paper's dividing speed.
	adaptiveSpeedThreshold = 10.0
	// predictiveReplanInterval is how often the Predictive controller
	// re-plans its channel schedule.
	predictiveReplanInterval = sim.Time(2 * time.Second)
	// predictiveLookahead is how far ahead of the client's position the
	// Predictive controller plans.
	predictiveLookahead = sim.Time(5 * time.Second)
	// deadDHCPRespMin/Max park a dead DHCP server's responses far outside
	// any client's acquisition window.
	deadDHCPRespMin = sim.Time(120 * time.Second)
	deadDHCPRespMax = sim.Time(240 * time.Second)
)

// Preset selects one of the paper's evaluated configurations.
type Preset int

// The four Spider configurations of Section 4.1, the stock-driver baseline,
// and the future-work adaptive mode.
const (
	// SingleChannelMultiAP is configuration 1: park on one channel, join
	// every usable AP there (the paper's throughput winner).
	SingleChannelMultiAP Preset = iota
	// SingleChannelSingleAP is configuration 2.
	SingleChannelSingleAP
	// MultiChannelMultiAP is configuration 3: rotate channels, join APs
	// on all of them (the connectivity winner).
	MultiChannelMultiAP
	// MultiChannelSingleAP is configuration 4.
	MultiChannelSingleAP
	// Stock approximates an unmodified MadWiFi driver: one AP at a time,
	// default timers, no lease cache, park-on-connect, scan when idle.
	Stock
	// Adaptive is the paper's future-work extension: single-channel at
	// speed, multi-channel when slow.
	Adaptive
	// Predictive is the encounter-history extension: the client learns
	// which channel carries its best APs on each stretch of road and
	// re-plans its single-channel schedule ahead of its position,
	// rotating channels only in unexplored territory.
	Predictive
)

func (p Preset) String() string {
	switch p {
	case SingleChannelMultiAP:
		return "single-channel/multi-AP"
	case SingleChannelSingleAP:
		return "single-channel/single-AP"
	case MultiChannelMultiAP:
		return "multi-channel/multi-AP"
	case MultiChannelSingleAP:
		return "multi-channel/single-AP"
	case Stock:
		return "stock"
	case Adaptive:
		return "adaptive"
	case Predictive:
		return "predictive"
	}
	return fmt.Sprintf("preset-%d", int(p))
}

// TimerProfile groups the join-related timeouts the paper sweeps.
type TimerProfile struct {
	// LLTimeout is the link-layer handshake retransmission timeout.
	LLTimeout sim.Time
	// DHCPRetry is the DHCP retransmission timeout (the model's c).
	DHCPRetry sim.Time
	// DHCPWindow bounds one DHCP acquisition.
	DHCPWindow sim.Time
	// UseLeaseCache enables the per-BSSID cached-lease fast path.
	UseLeaseCache bool
	// FailureBackoff is the per-AP retry embargo after a failed join.
	FailureBackoff sim.Time
}

// ReducedTimers returns Spider's tuned profile (100 ms link-layer, 200 ms
// DHCP retransmits, lease cache on).
func ReducedTimers() TimerProfile {
	return TimerProfile{
		LLTimeout:      100 * time.Millisecond,
		DHCPRetry:      200 * time.Millisecond,
		DHCPWindow:     3 * time.Second,
		UseLeaseCache:  true,
		FailureBackoff: 5 * time.Second,
	}
}

// DefaultTimers returns the stock stack's profile: 1 s link-layer timeout,
// 1 s DHCP retransmits in a 3 s window, 60 s idle after failure, no cache.
func DefaultTimers() TimerProfile {
	return TimerProfile{
		LLTimeout:      time.Second,
		DHCPRetry:      time.Second,
		DHCPWindow:     3 * time.Second,
		UseLeaseCache:  false,
		FailureBackoff: 60 * time.Second,
	}
}

// APOverrides tune every deployed AP uniformly.
type APOverrides struct {
	// DHCPRespMin/Max override the β response-delay distribution.
	DHCPRespMin sim.Time
	DHCPRespMax sim.Time
	// MgmtDelayMin/Max override management-plane processing delays.
	MgmtDelayMin sim.Time
	MgmtDelayMax sim.Time
	// BackhaulDelay overrides the one-way wired delay.
	BackhaulDelay sim.Time
	// BeaconInterval overrides the beacon period.
	BeaconInterval sim.Time
	// LeaseSecs overrides the advertised DHCP lease duration; short
	// leases force the LMM's mid-encounter renewal path.
	LeaseSecs uint32
	// DHCPPoolSize overrides the size of each AP's private pool in the
	// legacy address plan; an explicit WorldConfig.IPAM plan ignores it.
	// Small pools put population runs under genuine lease pressure.
	DHCPPoolSize int
	// DisableLeaseExpiry turns off the server-side lease expiry sweep, so
	// a vanished client's address is never reclaimed — the pre-ipam
	// behaviour, kept as the rush-hour experiment's no-GC baseline arm.
	DisableLeaseExpiry bool
}

// WorldConfig describes the shared world of a Scenario: everything that
// exists independently of any particular client.
type WorldConfig struct {
	// Seed makes the run reproducible.
	Seed int64
	// Duration is the simulated experiment length.
	Duration sim.Time
	// Sites are the deployed APs (required).
	Sites []mobility.APSite
	// AP tunes all deployed APs.
	AP APOverrides
	// IPAM, when non-nil, declares the address plane explicitly: named
	// pools and ordered failover groups (see internal/ipam). Each site
	// binds to the group named by its Segment (empty = the default group),
	// so APs on one backhaul segment share a pool hierarchy. Nil keeps the
	// legacy plan — one private pool per AP covering gw+1..gw+PoolSize.
	IPAM *ipam.Config
	// Chaos, when non-nil, injects the fault plan into the scenario (see
	// internal/chaos). The plan's AP indices refer to Sites order.
	Chaos *chaos.Plan
	// Alloc arms the proportional-fair association + airtime allocator
	// (see internal/alloc): Oracle runs a centralized epoch re-solve that
	// steers every client to its PF assignment and paces its flows to the
	// equal-airtime share; Decentralized installs a client-local policy in
	// each LMM that infers contention from carrier-sense signals. Zero
	// keeps the legacy selfish heuristic byte-identical.
	Alloc alloc.Variant
	// PCAP, when non-nil, receives a pcap capture of every frame on the
	// air (see internal/capture).
	PCAP io.Writer
	// Obs, when non-nil, records the run's structured event and span
	// timeline (see internal/obs). Events carry sim-time only, so a
	// recorded run stays bit-reproducible. Nil disables recording with no
	// cost beyond a nil check at each instrumentation site.
	Obs *obs.Recorder
	// Telemetry, when non-nil, attaches the streaming aggregation plane
	// (see internal/telemetry): bounded-memory rollup windows and SLO
	// health evaluation. The scenario binds it to the recorder, drives its
	// window ticks from the engine, and wires the medium/DHCP probe. When
	// Obs is nil a streaming (non-retaining) recorder is created
	// automatically, so city-scale runs get telemetry without the
	// O(events) raw timeline.
	Telemetry *telemetry.Aggregator
}

func (w WorldConfig) withDefaults() WorldConfig {
	if w.Duration <= 0 {
		w.Duration = defaultDuration
	}
	return w
}

// ClientConfig describes one mobile client of a Scenario.
type ClientConfig struct {
	// ID is the client's stable identity: its MAC address, RNG streams,
	// flow server-IP namespace, and result slot all derive from it, so a
	// run is a function of the ID set — never of the order AddClient was
	// called in. IDs must be unique within a scenario and in [0, 65535].
	ID int
	// Preset picks the Spider configuration.
	Preset Preset
	// PrimaryChannel is the channel for single-channel presets
	// (default channel 1, as in Table 2).
	PrimaryChannel dot11.Channel
	// Channels are the rotation channels for multi-channel presets
	// (default 1, 6, 11).
	Channels []dot11.Channel
	// SlotDuration is the per-channel dwell for multi-channel presets
	// (default 200 ms, as in Table 4).
	SlotDuration sim.Time
	// CustomSchedule, when non-empty, overrides the preset's channel
	// schedule entirely (used for the fractional-schedule experiments of
	// Figures 5-8).
	CustomSchedule []driver.Slot
	// Timers selects the join timeout profile (default ReducedTimers,
	// except Stock which forces DefaultTimers unless explicitly set).
	Timers *TimerProfile
	// Mobility is the client motion model (required). The model's clock
	// starts at StartOffset: a client entering the world late starts at
	// the beginning of its route.
	Mobility mobility.Model
	// NumVIFs overrides the interface count (default 7).
	NumVIFs int
	// FlowBytes bounds each per-link download; <=0 means unbounded bulk
	// (the paper's large-file HTTP downloads).
	FlowBytes int64
	// StripeObjectBytes, when positive, replaces bulk downloads with
	// back-to-back object fetches block-striped across all live links
	// (the data-striping extension).
	StripeObjectBytes int64
	// DisableTraffic turns off TCP flows (join-only experiments).
	DisableTraffic bool
	// StartOffset delays the client's stack (radio, driver, LMM) until
	// this virtual time, staggering population arrivals.
	StartOffset sim.Time
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.PrimaryChannel == 0 {
		c.PrimaryChannel = dot11.Channel1
	}
	if len(c.Channels) == 0 {
		c.Channels = append([]dot11.Channel(nil), dot11.OrthogonalChannels...)
	}
	if c.SlotDuration <= 0 {
		c.SlotDuration = defaultSlotDuration
	}
	if c.Timers == nil {
		var t TimerProfile
		if c.Preset == Stock {
			t = DefaultTimers()
		} else {
			t = ReducedTimers()
		}
		c.Timers = &t
	} else {
		t := *c.Timers // copy: shared profiles must not alias across runs
		c.Timers = &t
	}
	if c.NumVIFs <= 0 {
		if c.Preset == Stock {
			c.NumVIFs = 1
		} else {
			c.NumVIFs = 7
		}
	}
	if c.StartOffset < 0 {
		c.StartOffset = 0
	}
	if c.Mobility == nil {
		panic("core: ClientConfig.Mobility is required")
	}
	return c
}

// schedule builds the driver schedule for the preset.
func (c ClientConfig) schedule() []driver.Slot {
	if len(c.CustomSchedule) > 0 {
		return c.CustomSchedule
	}
	switch c.Preset {
	case SingleChannelMultiAP, SingleChannelSingleAP, Adaptive:
		return []driver.Slot{{Channel: c.PrimaryChannel}}
	default:
		// Multi-channel presets rotate; Predictive starts exploring this
		// way until its history has opinions.
		slots := make([]driver.Slot, 0, len(c.Channels))
		for _, ch := range c.Channels {
			slots = append(slots, driver.Slot{Channel: ch, Duration: c.SlotDuration})
		}
		return slots
	}
}

// Validate reports why a scenario would refuse c: no mobility model, an
// ID outside [0,65535], or a channel schedule the driver would refuse.
func (c ClientConfig) Validate() error {
	if c.Mobility == nil {
		return fmt.Errorf("core: client %d has no mobility model", c.ID)
	}
	if err := c.withDefaults().validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// validate checks a defaulted config's ID and every channel it can be
// scheduled on: the primary channel and each of Channels, from which the
// presets build their schedules and among which the adaptive and
// predictive controllers switch, and a custom schedule, which must pass
// the driver's own check. It allocates nothing, since every client of a
// world passes through it.
func (c ClientConfig) validate() error {
	if c.ID < 0 || c.ID > 65535 {
		return fmt.Errorf("client ID %d out of range [0,65535]", c.ID)
	}
	if !c.PrimaryChannel.Valid() {
		return fmt.Errorf("client %d: invalid primary channel %d", c.ID, c.PrimaryChannel)
	}
	for _, ch := range c.Channels {
		if !ch.Valid() {
			return fmt.Errorf("client %d: invalid channel %d", c.ID, ch)
		}
	}
	if len(c.CustomSchedule) > 0 {
		if err := driver.CheckSchedule(c.CustomSchedule); err != nil {
			return fmt.Errorf("client %d: %w", c.ID, err)
		}
	}
	return nil
}

// Validate reports why a scenario would refuse the world: a site on an
// invalid channel, or an address plan that ipam refuses or that cannot
// bind every site.
func (c WorldConfig) Validate() error {
	for i, site := range c.Sites {
		if !site.Channel.Valid() {
			return fmt.Errorf("core: site %d (%s): invalid channel %d", i, site.SSID, site.Channel)
		}
	}
	if _, _, err := addressPlane(c); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// lmmConfig builds the link-manager configuration for the preset.
func (c ClientConfig) lmmConfig() lmm.Config {
	cfg := lmm.DefaultConfig()
	cfg.Schedule = c.schedule()
	cfg.DHCP = dhcp.ClientConfig{RetryTimeout: c.Timers.DHCPRetry, AcquireWindow: c.Timers.DHCPWindow}
	cfg.UseLeaseCache = c.Timers.UseLeaseCache
	cfg.FailureBackoff = c.Timers.FailureBackoff
	cfg.TestTarget = TestServerAddr
	switch c.Preset {
	case SingleChannelSingleAP, MultiChannelSingleAP:
		cfg.SingleAP = true
	case Stock:
		cfg.SingleAP = true
		cfg.ParkOnConnect = true
		// A stock stack is slow on both ends of a connection's life:
		// the supplicant takes a couple of seconds to scan and decide,
		// and loss of an AP is noticed only after many seconds without
		// progress (no aggressive 10 Hz liveness probing).
		cfg.ReselectInterval = 4 * time.Second
		cfg.PingInterval = time.Second
		cfg.PingFailLimit = 15
		cfg.GlobalDHCPBackoff = true
		cfg.SelectByRSSIOnly = true
	}
	return cfg
}

// Result reports everything one client's run measured.
type Result struct {
	// ClientID identifies the client in population runs (0 for the
	// classic single-client scenarios).
	ClientID int
	Preset   Preset
	Seed     int64
	Duration sim.Time

	BytesReceived  int64
	ThroughputKBps float64 // average over the whole run
	Connectivity   float64 // fraction of seconds with data

	ConnectionDurations []float64 // seconds (Figure 11)
	DisruptionDurations []float64 // seconds (Figure 12)
	InstRatesKBps       []float64 // per-connected-second rates (Figure 13)

	Joins     []lmm.JoinRecord
	LinkUps   int
	LinkDowns int

	// Recoveries are outage lengths in seconds: the gap from losing the
	// last live link to the next established one. Chaos experiments
	// report these as fault recovery times. Tracked per client.
	Recoveries []float64
	// PerSecondKBps is delivered goodput per one-second bucket over the
	// whole run, zero seconds included (pre/post-fault goodput windows).
	PerSecondKBps []float64
	// Chaos counts injected faults when a fault plan was active (a
	// world-level total, identical on every client of a population).
	Chaos chaos.Stats
	// Events summarizes the run's recorded event stream by kind when a
	// WorldConfig.Obs recorder was attached (a world-level total covering
	// every client, identical on each client of a population). Zero when
	// recording was disabled.
	Events obs.Summary

	// Striped-traffic results (StripeObjectBytes > 0).
	StripeObjects    int
	StripeObjectSecs []float64

	// LinkSeconds[k] counts seconds spent with exactly k concurrent
	// links (Section 4.4's AP-density analysis).
	LinkSeconds map[int]int

	LMM    lmm.Stats
	Driver driver.Stats
	// Medium snapshots the shared medium's counters (world-level; in a
	// population every client reports the same totals).
	Medium phy.Stats

	// Energy attributes the client radio's draw over the run; see
	// internal/energy. EnergyPerBitMicroJ is joules-per-delivered-bit ×1e6.
	Energy             energy.Breakdown
	EnergyPerBitMicroJ float64
}

// TestServerAddr is the well-known wired host used for end-to-end
// connectivity tests (and answered by every non-captive AP's uplink).
const TestServerAddr ipnet.Addr = 0xC6120001 // 198.18.0.1

// Run executes a world with one client to completion and returns the
// client's measurements.
func Run(world WorldConfig, client ClientConfig) Result {
	s := NewScenario(world)
	s.AddClient(client)
	return s.Run()[0]
}
