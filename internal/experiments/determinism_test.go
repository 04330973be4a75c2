package experiments

import (
	"testing"
	"time"

	"spider/internal/chaos"
	"spider/internal/core"
	"spider/internal/dot11"
	"spider/internal/fleet"
	"spider/internal/geo"
	"spider/internal/mobility"
	"spider/internal/sim"
)

// fig5Output renders Figure 5 (join success by schedule, the experiment
// exercising the largest fleet sweep) through a pool with the given worker
// count.
func fig5Output(workers int) string {
	pool := fleet.New(fleet.Config{Workers: workers})
	defer pool.Close()
	o := Options{Seed: 1, Scale: 0.05, Fleet: pool.Group("fig5")}
	f := Figure5(o)
	return f.Render() + "\n" + f.CSV()
}

// TestWorkerCountInvariance is the determinism regression test: the same
// experiment run inline (no fleet), with one worker, and with eight
// workers must produce byte-identical rendered and CSV output. Jobs carry
// their own seeds and results merge in job order, so the worker count must
// never leak into results.
func TestWorkerCountInvariance(t *testing.T) {
	inline := func() string {
		f := Figure5(Options{Seed: 1, Scale: 0.05})
		return f.Render() + "\n" + f.CSV()
	}()
	if w1 := fig5Output(1); w1 != inline {
		t.Errorf("workers=1 differs from inline run:\n--- inline ---\n%s\n--- workers=1 ---\n%s", inline, w1)
	}
	if w8 := fig5Output(8); w8 != inline {
		t.Errorf("workers=8 differs from inline run:\n--- inline ---\n%s\n--- workers=8 ---\n%s", inline, w8)
	}
}

// TestOptionsKeyDistinct: cache keys must differ whenever any input the
// result depends on differs — otherwise one experiment's cached result
// could be served for another configuration.
func TestOptionsKeyDistinct(t *testing.T) {
	keys := map[string]string{}
	for _, tc := range []struct {
		label string
		o     Options
		id    string
	}{
		{"base", Options{Seed: 1, Scale: 1}, "townstudy"},
		{"other id", Options{Seed: 1, Scale: 1}, "fig5"},
		{"other seed", Options{Seed: 2, Scale: 1}, "townstudy"},
		{"other scale", Options{Seed: 1, Scale: 0.25}, "townstudy"},
	} {
		k := tc.o.Key(tc.id)
		if prev, dup := keys[k]; dup {
			t.Errorf("key collision between %q and %q: %q", prev, tc.label, k)
		}
		keys[k] = tc.label
	}
	// Zero values normalize to the same defaults the computation uses, so
	// the default and its explicit spelling share one cache slot.
	if (Options{}).Key("townstudy") != (Options{Seed: 1, Scale: 1}).Key("townstudy") {
		t.Error("defaulted options keyed differently from their explicit form")
	}
	// The fleet handle must never be part of the key: the same work on a
	// different pool is still the same work.
	a := Options{Seed: 1, Scale: 1}
	b := a
	pool := fleet.New(fleet.Config{Workers: 1})
	defer pool.Close()
	b.Fleet = pool.Group("x")
	if a.Key("townstudy") != b.Key("townstudy") {
		t.Error("fleet handle leaked into the cache key")
	}
}

// TestRepeatedRunIdentical guards the simulation stack's reproducibility:
// two same-seed runs must agree bit for bit. This fails if map iteration
// order anywhere feeds RNG consumption, event scheduling, or output order.
func TestRepeatedRunIdentical(t *testing.T) {
	a := fig5Output(4)
	b := fig5Output(4)
	if a != b {
		t.Errorf("same-seed runs differ:\n--- run A ---\n%s\n--- run B ---\n%s", a, b)
	}
}

// miniChaosSweep is a cut-down fault-intensity sweep: a short two-AP road
// drive run fault-free and under a seeded crash/DHCP/noise plan, rendered
// through the chaos table. It exists so the byte-identity checks below
// stay fast enough for the -race CI smoke job.
func miniChaosSweep(o Options) string {
	sec := sim.Time(time.Second)
	plan := chaos.Plan{
		Events: []chaos.Event{{At: 20 * sec, Kind: chaos.APCrash, AP: 0, Duration: 8 * sec}},
		Procs: []chaos.Process{
			{Kind: chaos.DHCPSilence, Mean: 25 * sec, Duration: 5 * sec, AP: chaos.RandomAP},
			{Kind: chaos.NoiseBurst, Mean: 30 * sec, Duration: 3 * sec, Channel: dot11.Channel1, Loss: 0.4},
		},
	}
	var sites []mobility.APSite
	for i := 0; i < 2; i++ {
		sites = append(sites, mobility.APSite{
			Pos: geo.Point{X: 150 + float64(i)*200, Y: 0}, Channel: dot11.Channel1,
			SSID: "mini-" + string(rune('a'+i)), Open: true, BackhaulBps: 2e6,
		})
	}
	model := mobility.NewWaypoints([]geo.Point{{X: 0, Y: 0}, {X: 700, Y: 0}}, 10, false)
	runs := make([]run, 2)
	for i := range runs {
		runs[i] = solo(core.WorldConfig{Seed: 42, Duration: 70 * time.Second, Sites: sites},
			core.ClientConfig{Preset: core.SingleChannelMultiAP, PrimaryChannel: dot11.Channel1, Mobility: model})
	}
	runs[1].world.Chaos = &plan
	cr := &ChaosResults{
		Duration:    70 * sec,
		Intensities: []float64{0, 1},
		Results:     soloSweep(o, "minichaos", runs),
		Hashes:      []string{"", plan.Hash()},
	}
	t := ChaosTable(cr)
	return t.Render() + "\n" + t.CSV() + "\n" + ChaosRecoveryFigure(cr).Render()
}

// TestChaosWorkerCountInvariance extends the determinism regression to
// fault-injected runs: identical (seed, plan) sweeps must render byte-
// identically inline, at one worker, and at eight workers. Chaos draws on
// its own RNG stream and processes re-arm in event-time order, so fault
// schedules cannot depend on execution interleaving.
func TestChaosWorkerCountInvariance(t *testing.T) {
	withPool := func(workers int) string {
		pool := fleet.New(fleet.Config{Workers: workers})
		defer pool.Close()
		return miniChaosSweep(Options{Seed: 1, Scale: 0.05, Fleet: pool.Group("chaos")})
	}
	inline := miniChaosSweep(Options{Seed: 1, Scale: 0.05})
	if w1 := withPool(1); w1 != inline {
		t.Errorf("workers=1 differs from inline run:\n--- inline ---\n%s\n--- workers=1 ---\n%s", inline, w1)
	}
	if w8 := withPool(8); w8 != inline {
		t.Errorf("workers=8 differs from inline run:\n--- inline ---\n%s\n--- workers=8 ---\n%s", inline, w8)
	}
}

// TestChaosRepeatedRunIdentical: two identical chaos sweeps on the same
// pool size must agree bit for bit, including fault counts and recovery
// CDFs.
func TestChaosRepeatedRunIdentical(t *testing.T) {
	run := func() string {
		pool := fleet.New(fleet.Config{Workers: 4})
		defer pool.Close()
		return miniChaosSweep(Options{Seed: 1, Scale: 0.05, Fleet: pool.Group("chaos")})
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed chaos runs differ:\n--- run A ---\n%s\n--- run B ---\n%s", a, b)
	}
}

// TestChaosPlanHashKeysCache: the chaos study's cache key must change when
// the fault plan changes, even at identical (seed, scale).
func TestChaosPlanHashKeysCache(t *testing.T) {
	o := Options{Seed: 1, Scale: 1}
	a := chaosPlan(1)
	b := chaosPlan(2)
	if a.Hash() == b.Hash() {
		t.Fatal("different intensities hash identically")
	}
	keyA := o.Key("chaos") + "|plans=" + a.Hash()
	keyB := o.Key("chaos") + "|plans=" + b.Hash()
	if keyA == keyB {
		t.Fatal("plan hash does not differentiate cache keys")
	}
}
