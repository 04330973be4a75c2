// Package serve is the crash-safe long-running service mode: a daemon
// that owns one live core.Scenario, advances virtual time in bounded
// quanta, and accepts external inputs — add a client, inject a chaos
// plan, start or stop flows — over a small HTTP/JSON API.
//
// Durability comes from determinism, not state serialization. Every
// external input is appended to a write-ahead intent log (fsynced,
// length-prefixed, checksummed) *before* it is applied, tagged with the
// virtual time it applies at. A checkpoint is just (world-spec hash,
// seed, intent log, sim time). Restore rebuilds the world from the spec
// and replays the intents at their recorded virtual times; because the
// simulation is a pure function of (seed, spec, intent timeline), the
// resumed run regenerates obs event and span streams byte-identical to
// an uninterrupted one — the property recovery_test.go enforces at every
// possible crash point. See DESIGN.md §12.
package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"spider/internal/core"
	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/ipam"
	"spider/internal/mobility"
	"spider/internal/obs"
	"spider/internal/sim"
	"spider/internal/telemetry"
)

// WorldSpec is the JSON-serializable description a serve world is built
// from. It mirrors core.WorldConfig minus the process-local seams (Obs
// recorder, PCAP writer) and is the unit the config hash covers: two
// daemons with equal specs and equal intent logs compute equal worlds.
type WorldSpec struct {
	// Seed makes the whole run — and every replay of it — reproducible.
	Seed int64 `json:"seed"`
	// HorizonNS, when positive, bounds the run: the daemon stops
	// advancing (and drains) once the clock reaches it. Zero serves
	// forever.
	HorizonNS int64 `json:"horizon_ns,omitempty"`
	// Sites are the deployed APs, in chaos-target index order.
	Sites []mobility.APSite `json:"sites"`
	// AP tunes every deployed AP uniformly (zero fields default).
	AP core.APOverrides `json:"ap,omitempty"`
	// IPAM optionally declares the shared address plane.
	IPAM *ipam.Config `json:"ipam,omitempty"`
	// Clients are the clients present from time zero; more arrive later
	// as add-client intents.
	Clients []ClientSpec `json:"clients,omitempty"`
	// Telemetry tunes the streaming aggregation plane. Nil enables it
	// with package defaults (telemetry is on by default in serve mode —
	// the rollups are what /v1/rollups serves); set Disable to turn it
	// off. The field is omitempty, so pre-telemetry config hashes are
	// unchanged.
	Telemetry *TelemetrySpec `json:"telemetry,omitempty"`
}

// TelemetrySpec is the serializable tuning of the streaming telemetry
// plane (see internal/telemetry). Zero fields take package defaults.
type TelemetrySpec struct {
	// Disable turns the plane off entirely: no rollups, /v1/rollups
	// answers 404.
	Disable bool `json:"disable,omitempty"`
	// WindowNS is the rollup window width (default 1s).
	WindowNS int64 `json:"window_ns,omitempty"`
	// MaxWindows bounds retained closed windows (0 keeps all).
	MaxWindows int `json:"max_windows,omitempty"`
	// SLOs replaces the default health rule set; nil keeps
	// telemetry.DefaultSLOs().
	SLOs []telemetry.SLORule `json:"slos,omitempty"`
}

// TelemetryAggregator builds the world's aggregator from the spec, or
// nil when the spec disables the plane. The aggregator is rebuilt fresh
// on every Open and refilled by intent replay, which is what makes
// post-restore rollups byte-identical to an uninterrupted run's.
func (w *WorldSpec) TelemetryAggregator() *telemetry.Aggregator {
	t := w.Telemetry
	if t != nil && t.Disable {
		return nil
	}
	cfg := telemetry.Config{SLOs: telemetry.DefaultSLOs()}
	if t != nil {
		cfg.Window = sim.Time(t.WindowNS)
		cfg.MaxWindows = t.MaxWindows
		if t.SLOs != nil {
			cfg.SLOs = t.SLOs
		}
	}
	return telemetry.New(cfg)
}

// ClientSpec is the serializable client description used both in the
// world spec and inside add-client intents.
type ClientSpec struct {
	ID int `json:"id"`
	// Preset is the Spider configuration by its canonical name
	// ("multi-channel/multi-AP", "stock", ...); empty selects
	// single-channel/multi-AP (the zero preset).
	Preset string `json:"preset,omitempty"`
	// PrimaryChannel / Channels / SlotNS tune the channel schedule
	// exactly as core.ClientConfig does (zero fields default).
	PrimaryChannel int       `json:"primary_channel,omitempty"`
	Channels       []int     `json:"channels,omitempty"`
	SlotNS         int64     `json:"slot_ns,omitempty"`
	NumVIFs        int       `json:"num_vifs,omitempty"`
	FlowBytes      int64     `json:"flow_bytes,omitempty"`
	StripeBytes    int64     `json:"stripe_bytes,omitempty"`
	DisableTraffic bool      `json:"disable_traffic,omitempty"`
	StartOffsetNS  int64     `json:"start_offset_ns,omitempty"`
	Route          RouteSpec `json:"route"`
}

// RouteSpec is the serializable mobility model: one point parks the
// client (Static); two or more move it along the waypoints at SpeedMPS,
// optionally looping.
type RouteSpec struct {
	Points   []geo.Point `json:"points"`
	SpeedMPS float64     `json:"speed_mps,omitempty"`
	Loop     bool        `json:"loop,omitempty"`
}

// Model materializes the route.
func (r RouteSpec) Model() (mobility.Model, error) {
	switch {
	case len(r.Points) == 0:
		return nil, fmt.Errorf("serve: route needs at least one point")
	case len(r.Points) == 1:
		return mobility.Static(r.Points[0]), nil
	}
	w, err := mobility.BuildWaypoints(r.Points, r.SpeedMPS, r.Loop)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return w, nil
}

// ParsePreset resolves a preset's canonical name (core.Preset.String).
// The empty string is the zero preset.
func ParsePreset(name string) (core.Preset, error) {
	if name == "" {
		return core.SingleChannelMultiAP, nil
	}
	for p := core.SingleChannelMultiAP; ; p++ {
		s := p.String()
		if s == name {
			return p, nil
		}
		if len(s) > 7 && s[:7] == "preset-" { // ran past the defined set
			return 0, fmt.Errorf("serve: unknown preset %q", name)
		}
	}
}

// Bounds on what a spec may ask to allocate. A world is rebuilt and its
// intents re-applied on every restart, so a spec or an intent that
// exhausts memory would wedge its state directory; these refuse it.
const (
	// maxVIFs bounds a client's virtual interfaces (the paper uses 7).
	maxVIFs = 64
	// maxPoolHosts bounds every address pool, explicit or per AP, whose
	// addresses are listed in memory: a world holds at most 65,536
	// clients (IDs 0..65535).
	maxPoolHosts = 1 << 16
)

// minPeriod is the shortest positive period a spec or an intent may ask
// for: one 802.11 time unit, the unit beacon intervals are counted in.
// Every restart replays the world, so a period that fires events far
// faster than that — a two-AP world fires 74 events per sim-second at
// 100 ms beacons and 24,261 at 100 µs — would leave the daemon behind its
// clock for good. Zero keeps its meaning (default, or off).
const minPeriod = sim.Time(1024 * time.Microsecond)

// checkPeriod refuses a positive period below minPeriod, naming field.
func checkPeriod(field string, d sim.Time) error {
	if d > 0 && d < minPeriod {
		return fmt.Errorf("%s %v is below one 802.11 time unit (%v)", field, d, minPeriod)
	}
	return nil
}

// ClientConfig converts the spec into a core client config, validating
// preset, route, ID, channels and interface count.
func (c ClientSpec) ClientConfig() (core.ClientConfig, error) {
	preset, err := ParsePreset(c.Preset)
	if err != nil {
		return core.ClientConfig{}, err
	}
	model, err := c.Route.Model()
	if err != nil {
		return core.ClientConfig{}, fmt.Errorf("serve: client %d: %w", c.ID, err)
	}
	if c.NumVIFs > maxVIFs {
		return core.ClientConfig{}, fmt.Errorf("serve: client %d: num_vifs %d exceeds %d", c.ID, c.NumVIFs, maxVIFs)
	}
	if err := checkPeriod("slot_ns", sim.Time(c.SlotNS)); err != nil {
		return core.ClientConfig{}, fmt.Errorf("serve: client %d: %w", c.ID, err)
	}
	var channels []dot11.Channel
	for _, ch := range c.Channels {
		channels = append(channels, dot11.Channel(ch))
	}
	cc := core.ClientConfig{
		ID:                c.ID,
		Preset:            preset,
		PrimaryChannel:    dot11.Channel(c.PrimaryChannel),
		Channels:          channels,
		SlotDuration:      sim.Time(c.SlotNS),
		NumVIFs:           c.NumVIFs,
		FlowBytes:         c.FlowBytes,
		StripeObjectBytes: c.StripeBytes,
		DisableTraffic:    c.DisableTraffic,
		StartOffset:       sim.Time(c.StartOffsetNS),
		Mobility:          model,
	}
	if err := cc.Validate(); err != nil {
		return core.ClientConfig{}, fmt.Errorf("serve: %w", err)
	}
	return cc, nil
}

// Validate checks everything Open would otherwise panic on, without
// building a world: sites and their channels, the address plan, the
// telemetry rings, and every declared client, whose IDs must be distinct.
func (w *WorldSpec) Validate() error {
	if len(w.Sites) == 0 {
		return fmt.Errorf("serve: world spec declares no sites")
	}
	if w.HorizonNS < 0 {
		return fmt.Errorf("serve: negative horizon")
	}
	if w.AP.DHCPPoolSize > maxPoolHosts {
		return fmt.Errorf("serve: dhcp pool size %d exceeds %d", w.AP.DHCPPoolSize, maxPoolHosts)
	}
	if err := checkPeriod("ap.BeaconInterval", w.AP.BeaconInterval); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if t := w.Telemetry; t != nil {
		if err := checkPeriod("telemetry.window_ns", sim.Time(t.WindowNS)); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if w.IPAM != nil {
		for _, p := range w.IPAM.Pools {
			if p.CIDR.IsValid() && p.CIDR.NumHosts() > maxPoolHosts {
				return fmt.Errorf("serve: pool %q holds %d hosts, more than %d", p.Name, p.CIDR.NumHosts(), maxPoolHosts)
			}
		}
	}
	if err := w.WorldConfig(nil).Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	ids := make(map[int]bool, len(w.Clients))
	for _, c := range w.Clients {
		if _, err := c.ClientConfig(); err != nil {
			return err
		}
		if ids[c.ID] {
			return fmt.Errorf("serve: duplicate client ID %d", c.ID)
		}
		ids[c.ID] = true
	}
	return nil
}

// start builds the world and its declared clients, recorded by rec, and
// starts it at virtual time zero.
func (w *WorldSpec) start(rec *obs.Recorder) (*core.Scenario, *telemetry.Aggregator, error) {
	tel := w.TelemetryAggregator()
	wc := w.WorldConfig(rec)
	wc.Telemetry = tel
	scn := core.NewScenario(wc)
	for _, cs := range w.Clients {
		cc, err := cs.ClientConfig()
		if err != nil {
			return nil, nil, err
		}
		scn.AddClient(cc)
	}
	scn.Start()
	return scn, tel, nil
}

// Hash returns a stable FNV-1a digest of the spec's canonical JSON
// encoding. Snapshots record it, and restore refuses a snapshot whose
// hash disagrees with the config on disk: replaying an intent log into a
// different world would silently produce a different (but plausible)
// timeline, which is the worst possible failure mode for a durability
// story.
func (w *WorldSpec) Hash() string {
	b, err := json.Marshal(w)
	if err != nil {
		// A spec is plain data; failure to encode is a programming error.
		panic("serve: spec hash: " + err.Error())
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// WorldConfig converts the spec into a core world config wired to the
// given recorder. The configured duration is the horizon (or the core
// default when unbounded) — the serve loop steps the engine itself, so
// this only labels results.
func (w *WorldSpec) WorldConfig(rec *obs.Recorder) core.WorldConfig {
	return core.WorldConfig{
		Seed:     w.Seed,
		Duration: sim.Time(w.HorizonNS),
		Sites:    w.Sites,
		AP:       w.AP,
		IPAM:     w.IPAM,
		Obs:      rec,
	}
}
