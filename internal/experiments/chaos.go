package experiments

import (
	"fmt"
	"strings"
	"time"

	"spider/internal/chaos"
	"spider/internal/core"
	"spider/internal/dot11"
	"spider/internal/sim"
	"spider/internal/stats"
)

// ChaosResults bundles the fault-intensity sweep: the same town drive run
// under increasingly hostile conditions. Intensity 0 is the fault-free
// baseline the goodput-retention column normalizes against.
type ChaosResults struct {
	Duration sim.Time
	// Intensities are AP crashes per simulated minute; the companion
	// DHCP, backhaul, and noise processes scale with the same knob.
	Intensities []float64
	Results     []core.Result
	Hashes      []string // plan hash per intensity ("" for the baseline)
}

// chaosPlan builds the fault mix for one intensity: random-AP crashes
// with reboot, DHCP silence windows, backhaul blackholes, and noise
// bursts on the operating channel, all as seeded Poisson processes. The
// per-AP faults model flaky individual APs; the low-rate global
// blackhole models a neighborhood upstream outage, which is the fault
// every client link actually sees regardless of which AP serves it.
func chaosPlan(crashesPerMin float64) chaos.Plan {
	if crashesPerMin <= 0 {
		return chaos.Plan{}
	}
	mean := sim.Time(float64(time.Minute) / crashesPerMin)
	return chaos.Plan{Procs: []chaos.Process{
		{Kind: chaos.APCrash, Mean: mean, Duration: 8 * time.Second, AP: chaos.RandomAP},
		{Kind: chaos.DHCPSilence, Mean: 2 * mean, Duration: 10 * time.Second, AP: chaos.RandomAP},
		{Kind: chaos.BackhaulBlackhole, Mean: 3 * mean, Duration: 5 * time.Second, AP: chaos.RandomAP},
		{Kind: chaos.BackhaulBlackhole, Mean: 8 * mean, Duration: 6 * time.Second, AP: chaos.AllAPs},
		// Near-total loss long enough to starve the liveness pinger
		// (30 probes at 10 Hz): the one fault the client feels no
		// matter which AP currently serves it.
		{Kind: chaos.NoiseBurst, Mean: 2 * mean, Duration: 5 * time.Second, Channel: dot11.Channel1, Loss: 0.9},
	}}
}

// ChaosScenario returns the 2-crashes/min point of the chaos sweep as a
// standalone world and client — the representative faulted run that
// spider-bench's obs-overhead benchmark and the chaos timeline pins
// execute directly, bypassing the fleet result cache so events are always
// generated fresh.
func ChaosScenario(o Options) (core.WorldConfig, core.ClientConfig) {
	plan := chaosPlan(2)
	world, client := chaosRun(o)
	world.Chaos = &plan
	return world, client
}

// chaosRun is one run of the chaos sweep before its fault plan: the town
// drive in the paper's winning configuration (channel 1, multi-AP), with
// short leases (renew at ~7.5 s, within a typical town encounter) so the
// sweep exercises mid-encounter renewal.
func chaosRun(o Options) (core.WorldConfig, core.ClientConfig) {
	mob, sites := townLoop(o.seed(), 10, 0.4)
	world := core.WorldConfig{
		Seed:     o.seed(),
		Duration: o.dur(10*time.Minute, 2*time.Minute),
		Sites:    sites,
		AP:       core.APOverrides{LeaseSecs: 15},
	}
	return world, core.ClientConfig{Preset: core.SingleChannelMultiAP, PrimaryChannel: dot11.Channel1, Mobility: mob}
}

// ChaosStudy sweeps fault intensity over the town drive in the paper's
// winning configuration (channel 1, multi-AP). The bundle is memoized
// under the canonical key plus every plan hash, so editing the fault mix
// invalidates cached results even at identical (seed, scale).
func ChaosStudy(o Options) *ChaosResults {
	intensities := []float64{0, 0.5, 1, 2, 4}
	plans := make([]chaos.Plan, len(intensities))
	hashes := make([]string, len(intensities))
	for i, inten := range intensities {
		plans[i] = chaosPlan(inten)
		if !plans[i].Empty() {
			hashes[i] = plans[i].Hash()
		}
	}
	key := o.Key("chaos") + "|plans=" + strings.Join(hashes, ",")
	return memoKey(o, key, func() *ChaosResults {
		runs := make([]run, len(intensities))
		for i := range intensities {
			world, client := chaosRun(o)
			if !plans[i].Empty() {
				world.Chaos = &plans[i]
			}
			runs[i] = solo(world, client)
		}
		return &ChaosResults{
			Duration:    runs[0].world.Duration,
			Intensities: intensities,
			Results:     soloSweep(o, "chaos", runs),
			Hashes:      hashes,
		}
	})
}

// ChaosTable reports recovery and goodput-retention metrics per fault
// intensity.
func ChaosTable(cr *ChaosResults) Table {
	t := Table{
		ID:    "chaos",
		Title: "Fault-intensity sweep: recovery time and goodput retention",
		Columns: []string{
			"crashes/min", "faults", "recoveries", "mean rec (s)", "p95 rec (s)",
			"link drops", "renewals", "throughput", "retention",
		},
	}
	baseline := cr.Results[0].ThroughputKBps
	for i, r := range cr.Results {
		rec := stats.Summarize(r.Recoveries)
		p95 := "-"
		mean := "-"
		if rec.N > 0 {
			mean = fmt.Sprintf("%.1f", rec.Mean)
			p95 = fmt.Sprintf("%.1f", stats.NewCDF(r.Recoveries).Quantile(0.95))
		}
		retention := "-"
		if baseline > 0 {
			retention = fmt.Sprintf("%.1f%%", r.ThroughputKBps/baseline*100)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", cr.Intensities[i]),
			fmt.Sprintf("%d", r.Chaos.Injected),
			fmt.Sprintf("%d", len(r.Recoveries)),
			mean, p95,
			fmt.Sprintf("%d", r.LinkDowns),
			fmt.Sprintf("%d", r.LMM.LeaseRenewals),
			fmt.Sprintf("%.1f KB/s", r.ThroughputKBps),
			retention,
		})
	}
	return t
}

// ChaosRecoveryFigure reports the CDF of outage recovery times at each
// non-zero fault intensity.
func ChaosRecoveryFigure(cr *ChaosResults) Figure {
	fig := Figure{
		ID:     "chaos-recovery",
		Title:  "CDF of outage recovery times by fault intensity",
		XLabel: "recovery time (s)",
		YLabel: "frequency",
	}
	for i, r := range cr.Results {
		if cr.Intensities[i] == 0 || len(r.Recoveries) == 0 {
			continue
		}
		fig.Series = append(fig.Series,
			cdfSeries(fmt.Sprintf("%g crashes/min", cr.Intensities[i]), r.Recoveries, 60, 30))
	}
	return fig
}
