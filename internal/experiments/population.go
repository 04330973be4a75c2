package experiments

import (
	"fmt"
	"time"

	"spider/internal/core"
	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/mobility"
	"spider/internal/sim"
)

// The population study answers the deployment-scale question the
// single-client reproduction cannot: what happens when N vehicles share
// one corridor's APs and airtime? Every client runs the paper's best
// configuration (single-channel/multi-AP) on the same road; the sweep
// grows the population and reports aggregate goodput, the per-client
// distribution, Jain's fairness index, medium contention, and DHCP
// address-pool pressure.

// populationSizes is the swept population ladder. The 1-client rung
// anchors the capacity-sharing check (aggregate at N must stay under
// N × single-client goodput); 64 is the pool-pressure stressor.
var populationSizes = []int{1, 2, 4, 8, 16, 32, 64}

const (
	// populationPoolSize caps each AP's DHCP pool below the largest
	// population, so the 64-client rung genuinely exhausts leases.
	populationPoolSize = 24
	// populationStagger spaces client departures along the corridor.
	populationStagger = sim.Time(1500 * time.Millisecond)
)

// PopulationResults holds the sweep for rendering.
type PopulationResults struct {
	Sizes    []int
	Duration sim.Time
	Results  []core.PopulationResult
}

// populationWorld builds the shared corridor: a straight road with
// channel-1 APs every 180 m, all open, modest backhaul — enough APs that
// every client is in range of one, few enough that populations contend.
func populationWorld(seed int64, d sim.Time) (core.WorldConfig, mobility.Model) {
	const speed = 10.0 // m/s
	length := speed*d.Seconds() + 100
	var sites []mobility.APSite
	for i := 0; float64(i)*180 < length; i++ {
		sites = append(sites, mobility.APSite{
			Pos:     geo.Point{X: float64(i) * 180, Y: 20},
			Channel: dot11.Channel1,
			SSID:    fmt.Sprintf("corridor-%03d", i),
			Open:    true, BackhaulBps: 4e6,
		})
	}
	world := core.WorldConfig{
		Seed:     seed,
		Duration: d,
		Sites:    sites,
		AP:       core.APOverrides{DHCPPoolSize: populationPoolSize},
	}
	route := mobility.NewWaypoints([]geo.Point{{X: 0, Y: 0}, {X: length, Y: 0}}, speed, false)
	return world, route
}

// populationClients builds n staggered clients driving the corridor.
func populationClients(n int, route mobility.Model) []core.ClientConfig {
	clients := make([]core.ClientConfig, n)
	for i := range clients {
		clients[i] = core.ClientConfig{
			ID:             i,
			Preset:         core.SingleChannelMultiAP,
			PrimaryChannel: dot11.Channel1,
			Mobility:       route,
			StartOffset:    sim.Time(i) * populationStagger,
		}
	}
	return clients
}

// PopulationScenario returns one rung of the population study — the world
// and N staggered clients at the options' duration. The study runs every
// rung from it, so a caller that executes a rung directly (the ladder pin
// and the benchmark suite) through core.RunPopulation reproduces the
// study's numbers for that rung exactly.
func PopulationScenario(o Options, n int) (core.WorldConfig, []core.ClientConfig) {
	d := o.dur(sim.Time(5*time.Minute), sim.Time(60*time.Second))
	world, route := populationWorld(o.seed(), d)
	return world, populationClients(n, route)
}

// PopulationDenseScenario is a city-scale rung of the population study:
// the same corridor and per-client configuration as PopulationScenario,
// but with departures compressed into the first quarter of the run. The
// classic 1.5 s stagger would push most of a 256/1024/4096-client
// population past the end of a benchmark-scale run; compressing the
// window keeps the whole population airborne so the rung measures true
// city-scale contention. The 1/8/32/64 rungs keep the classic stagger,
// so their workloads stay comparable with historical baselines.
func PopulationDenseScenario(o Options, n int) (core.WorldConfig, []core.ClientConfig) {
	d := o.dur(sim.Time(5*time.Minute), sim.Time(60*time.Second))
	world, route := populationWorld(o.seed(), d)
	clients := populationClients(n, route)
	window := d / 4
	for i := range clients {
		clients[i].StartOffset = sim.Time(i) * window / sim.Time(n)
	}
	return world, clients
}

// PopulationStudy sweeps the population ladder, one fleet job per rung (a
// rung is one N-client scenario and cannot shard further — its clients
// share an engine). Memoized under the experiment's canonical key.
func PopulationStudy(o Options) *PopulationResults {
	return memo(o, "population", func() *PopulationResults {
		d := o.dur(sim.Time(5*time.Minute), sim.Time(60*time.Second))
		runs := make([]run, len(populationSizes))
		for i, n := range populationSizes {
			world, clients := PopulationScenario(o, n)
			runs[i] = run{world: world, clients: clients}
		}
		results := sweep(o, runs, func(i int) string { return fmt.Sprintf("population#n=%d", populationSizes[i]) })
		return &PopulationResults{
			Sizes:    populationSizes,
			Duration: d,
			Results:  results,
		}
	})
}

// PopulationTable renders the sweep: scale-out goodput, the fairness of
// its division, and the contention/pool-pressure counters behind it.
func PopulationTable(r *PopulationResults) Table {
	t := Table{
		ID:    "population",
		Title: fmt.Sprintf("population scaling on a shared corridor (%v per run)", time.Duration(r.Duration)),
		Columns: []string{"clients", "aggregate KB/s", "mean KB/s", "p50 KB/s", "p95 KB/s",
			"jain", "connectivity", "pool refusals", "collisions"},
	}
	for i, n := range r.Sizes {
		p := r.Results[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", p.AggregateKBps),
			fmt.Sprintf("%.1f", p.MeanKBps),
			fmt.Sprintf("%.1f", p.P50KBps),
			fmt.Sprintf("%.1f", p.P95KBps),
			fmt.Sprintf("%.3f", p.JainFairness),
			fmt.Sprintf("%.3f", p.MeanConnectivity),
			fmt.Sprintf("%d", p.DHCPPoolExhausted),
			fmt.Sprintf("%d", p.Medium.Collisions),
		})
	}
	return t
}

// PopulationFigure plots aggregate and per-client goodput against
// population size: the aggregate curve flattens as the corridor saturates
// while the per-client curve decays — capacity sharing made visible.
func PopulationFigure(r *PopulationResults) Figure {
	agg := Series{Name: "aggregate"}
	per := Series{Name: "per-client mean"}
	for i, n := range r.Sizes {
		x := float64(n)
		agg.X = append(agg.X, x)
		agg.Y = append(agg.Y, r.Results[i].AggregateKBps)
		per.X = append(per.X, x)
		per.Y = append(per.Y, r.Results[i].MeanKBps)
	}
	return Figure{
		ID:     "population-goodput",
		Title:  "goodput vs population size",
		XLabel: "clients on the corridor",
		YLabel: "goodput (KB/s)",
		Series: []Series{agg, per},
	}
}
