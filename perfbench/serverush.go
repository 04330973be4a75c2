package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"spider/internal/chaos"
	"spider/internal/core"
	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/ipam"
	"spider/internal/ipnet"
	"spider/internal/mobility"
	"spider/internal/obs"
	"spider/internal/serve"
	"spider/internal/sim"
)

// serve-rush is the rush-hour plaza (see internal/experiments/rushhour.go,
// arm +failover+gc) run as a live serve world: vehicles arrive as
// add-client intents accepted at quiescent barriers while Advance steps
// fixed quanta, every intent is an fsynced WAL write, a checkpoint lands
// every 30 sim-s, and at the end the state directory is re-opened to time
// recovery.
const (
	rushVehicles   = 300
	rushHorizon    = sim.Time(300 * time.Second)
	rushAPs        = 4
	rushSpacing    = 120.0 // m between APs
	rushSpeed      = 15.0  // m/s
	rushLeaseSecs  = 30
	rushReserve    = 2
	rushQuantum    = sim.Time(250 * time.Millisecond)
	rushCheckpoint = sim.Time(30 * time.Second)
	rushChaosAt    = sim.Time(150 * time.Second)
	// rushFlowEvery gives every tenth vehicle a bulk flow.
	rushFlowEvery = 10
)

// stateRoot holds serve state directories, inside the build directory the
// checkout already ignores.
const stateRoot = ".bench_build/serve-state"

// rushSpec is the plaza world: four channel-1 APs on one backhaul segment
// sharing an IPAM group with a backup pool and per-AP reserves, 30 s
// leases reclaimed by the expiry sweep, and telemetry on (serve's
// default).
func rushSpec(seed int64) *serve.WorldSpec {
	sites := make([]mobility.APSite, rushAPs)
	for i := range sites {
		sites[i] = mobility.APSite{
			Pos:     geo.Point{X: float64(i) * rushSpacing, Y: 15},
			Channel: dot11.Channel1,
			SSID:    fmt.Sprintf("plaza-%d", i),
			Open:    true, BackhaulBps: 4e6,
			Segment: "plaza",
		}
	}
	return &serve.WorldSpec{
		Seed:      seed,
		HorizonNS: int64(rushHorizon),
		Sites:     sites,
		AP:        core.APOverrides{LeaseSecs: rushLeaseSecs},
		IPAM: &ipam.Config{
			Pools: []ipam.PoolSpec{
				{Name: "primary", CIDR: ipnet.MustParsePrefix("172.16.0.0/25")},
				{Name: "backup", CIDR: ipnet.MustParsePrefix("172.17.0.0/25")},
			},
			Groups:       []ipam.GroupSpec{{Name: "plaza", Pools: []string{"primary", "backup"}}},
			ReservePerAP: rushReserve,
		},
	}
}

// timedIntent is an intent and the virtual time it should apply at.
type timedIntent struct {
	at sim.Time
	in serve.Intent
}

// rushIntents is the input timeline in apply order: vehicle i arrives at
// i·stagger, so the last one has crossed the plaza by the horizon, and one
// AP crash (rebooting 20 s later) lands mid-run.
func rushIntents() []timedIntent {
	start, end := geo.Point{X: -60}, geo.Point{X: float64(rushAPs-1)*rushSpacing + 220}
	cross := sim.Time(float64(time.Second) * (end.X - start.X) / rushSpeed)
	stagger := (rushHorizon - cross) / rushVehicles
	out := []timedIntent{{at: rushChaosAt, in: serve.Intent{
		Kind: serve.IntentInjectChaos,
		Chaos: &chaos.Plan{Name: "rush-crash", Events: []chaos.Event{
			{At: rushChaosAt, Kind: chaos.APCrash, AP: 1, Duration: 20 * time.Second},
		}},
	}}}
	for i := 0; i < rushVehicles; i++ {
		out = append(out, timedIntent{at: sim.Time(i) * stagger, in: serve.Intent{
			Kind: serve.IntentAddClient,
			Client: &serve.ClientSpec{
				ID:             i,
				PrimaryChannel: 1,
				DisableTraffic: i%rushFlowEvery != 0,
				Route:          serve.RouteSpec{Points: []geo.Point{start, end}, SpeedMPS: rushSpeed},
			},
		}})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// freshStateDir makes an empty state directory under stateRoot.
func freshStateDir() (string, error) {
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(stateRoot, "world-")
}

// setupServeRush times serve.Open on a fresh state directory.
func setupServeRush(seed int64) (time.Duration, error) {
	dir, err := freshStateDir()
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	srv, err := serve.Open(dir, rushSpec(seed))
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	return d, srv.Close()
}

// runServeRush executes one serve-rush repeat: the live run advancing in
// the given quanta, the output fingerprint, the layer counters, and the
// timed recovery, whose world must fingerprint identically.
func runServeRush(seed int64, quantum sim.Time, tr *tracer) (*repeat, error) {
	dir, err := freshStateDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &repeat{}
	var srv *serve.Server
	scn := func() *core.Scenario {
		if srv == nil {
			return nil
		}
		return srv.Scenario()
	}
	r.setup = tr.call("serve.Open", scn, func() { srv, err = serve.Open(dir, rushSpec(seed)) })
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.Close()
		}
	}()

	intents := rushIntents()
	ph := startPhase(tr.on)
	next := 0
	for t := quantum; t <= rushHorizon; t += quantum {
		now := srv.Now()
		for ; next < len(intents) && intents[next].at < t; next++ {
			r.intents++
			var aerr error
			d := tr.call("serve.Accept", scn, func() { _, aerr = srv.Accept(intents[next].in, intents[next].at-now) })
			if aerr != nil {
				r.opFailures++
				fmt.Fprintf(os.Stderr, "accept intent %d: %v\n", next, aerr)
				continue
			}
			r.ackUS = append(r.ackUS, float64(d)/float64(time.Microsecond))
		}
		before := srv.Scenario().Engine().Fired()
		d := tr.call("serve.Advance", scn, func() { srv.Advance(t) })
		r.slices = append(r.slices, slice{wall: d, fired: srv.Scenario().Engine().Fired() - before})
		r.advanceMS = append(r.advanceMS, float64(d)/float64(time.Millisecond))
		if t%rushCheckpoint == 0 {
			var cerr error
			d := tr.call("serve.Checkpoint", scn, func() { cerr = srv.Checkpoint() })
			if cerr != nil {
				return nil, fmt.Errorf("checkpoint at %v: %w", t, cerr)
			}
			r.checkpointMS = append(r.checkpointMS, float64(d)/float64(time.Millisecond))
		}
	}
	if err := ph.stop(r); err != nil {
		return nil, err
	}
	r.heapMB = liveHeapMB(srv)
	r.fingerprint, err = fingerprintServer(srv)
	if err != nil {
		return nil, err
	}
	r.opFailures += rejectedIntents(srv.Lifecycle())
	if got := srv.Applied(); got != uint64(r.intents) {
		return nil, fmt.Errorf("applied %d of %d intents", got, r.intents)
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	// The live world is done; finalizing it only reads its counters.
	var results []core.Result
	r.finalize = tr.call("core.Finalize", scn, func() { results = srv.Scenario().Finalize() })
	r.counters = scenarioCounters(srv.Scenario(), results, rushHorizon)
	r.counters["obs.events"] = float64(srv.Recorder().Summary().Total())
	srv = nil

	var rec *serve.Server
	r.recover = tr.call("serve.Open(recover)", func() *core.Scenario {
		if rec == nil {
			return nil
		}
		return rec.Scenario()
	}, func() { rec, err = serve.Open(dir, nil) })
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	defer rec.Close()
	if rec.Restored() != rushHorizon {
		return nil, fmt.Errorf("recovered to %v, want %v", rec.Restored(), rushHorizon)
	}
	recovered, err := fingerprintServer(rec)
	if err != nil {
		return nil, err
	}
	if recovered != r.fingerprint {
		r.opFailures++
		fmt.Fprintf(os.Stderr, "recovered world fingerprint %s != live %s\n", recovered, r.fingerprint)
	}
	return r, checkCounters("serve-rush", r.counters)
}

// fingerprintServer hashes a serve world's rollup JSONL plus its applied
// intent count and clock.
func fingerprintServer(srv *serve.Server) (string, error) {
	var buf bytes.Buffer
	if err := srv.Telemetry().WriteJSONL(&buf, ""); err != nil {
		return "", err
	}
	fmt.Fprintf(&buf, "applied=%d now=%d\n", srv.Applied(), int64(srv.Now()))
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// rejectedIntents counts intents the world refused at apply time.
func rejectedIntents(life *obs.Recorder) int {
	n := 0
	for _, e := range life.Events() {
		if e.Kind == obs.KindServeIntent && strings.HasPrefix(e.Note, "rejected:") {
			n++
		}
	}
	return n
}
