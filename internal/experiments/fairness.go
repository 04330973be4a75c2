package experiments

import (
	"fmt"
	"time"

	"spider/internal/alloc"
	"spider/internal/core"
	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/mobility"
	"spider/internal/sim"
)

// The fairness frontier answers the collapse question the population sweep
// exposed: at 64 clients the selfish utility heuristic piles the herd onto
// the same APs, Jain fairness craters, and aggregate goodput drops below
// the 8-client figure. This study sweeps the population ladder under three
// association/airtime policies — the legacy heuristic, the decentralized
// contention-inference allocator, and the centralized proportional-fair
// oracle — and plots the Jain and aggregate-goodput frontiers each traces.

// fairnessSizes is the swept ladder, 1 → 1024. The 64-client rung is the
// collapse point the issue names; 256/1024 probe city scale.
var fairnessSizes = []int{1, 4, 16, 64, 256, 1024}

// fairnessArms are the compared policies in frontier order. Variant 0 is
// the legacy selfish heuristic (a zero WorldConfig.Alloc).
var fairnessArms = []alloc.Variant{0, alloc.Decentralized, alloc.Oracle}

func armName(v alloc.Variant) string {
	if v == 0 {
		return "heuristic"
	}
	return v.String()
}

// FairnessResults holds the sweep for rendering: Results[arm][rung].
type FairnessResults struct {
	Sizes    []int
	Arms     []alloc.Variant
	Duration sim.Time
	Results  [][]core.PopulationResult
}

// fairnessWorld builds the frontier's corridor. It differs from the
// population corridor in two deliberate ways:
//
//   - APs every 60 m striped across channels 1/6/11, so a client is
//     always in range of ~3 APs on distinct channels. The population
//     corridor's all-channel-1 layout makes every policy share one
//     corridor-wide collision domain — with no channel to back off to,
//     "association policy" degenerates to a lottery. Real deployments
//     stripe channels precisely so neighbours don't contend.
//
//   - DHCP pools opened to the per-gateway carve's maximum (the
//     population study deliberately starves pools at 24 leases/AP to
//     measure address pressure; here a client that cannot lease an
//     address scores a structural zero no association policy can fix).
func fairnessWorld(seed int64, d sim.Time) (core.WorldConfig, mobility.Model) {
	const speed = 10.0 // m/s
	length := speed*d.Seconds() + 100
	stripe := []dot11.Channel{dot11.Channel1, dot11.Channel6, dot11.Channel11}
	var sites []mobility.APSite
	for i := 0; float64(i)*60 < length; i++ {
		sites = append(sites, mobility.APSite{
			Pos:     geo.Point{X: float64(i) * 60, Y: 20},
			Channel: stripe[i%len(stripe)],
			SSID:    fmt.Sprintf("fair-%03d", i),
			Open:    true, BackhaulBps: 4e6,
		})
	}
	world := core.WorldConfig{
		Seed:     seed,
		Duration: d,
		Sites:    sites,
		AP:       core.APOverrides{DHCPPoolSize: 254},
	}
	route := mobility.NewWaypoints([]geo.Point{{X: 0, Y: 0}, {X: length, Y: 0}}, speed, false)
	return world, route
}

// FairnessScenario builds one (policy, population) cell of the frontier:
// the striped corridor with n clients and the chosen allocator armed
// (variant 0 = the legacy heuristic). Clients run the multi-channel
// multi-AP preset — the heuristic arm is then genuinely selfish, every
// client free to grab links on all three channels at once, which is the
// collapse the frontier measures. Departures always use the dense
// window: the classic 1.5 s stagger at 64+ clients pushes most of the
// population past the end of a benchmark-scale run, and a client that
// never starts scores a structural zero no allocator can fix — the
// frontier must measure allocation policy, not departure-schedule
// truncation, so every arm and every rung share the dense schedule.
func FairnessScenario(o Options, n int, v alloc.Variant) (core.WorldConfig, []core.ClientConfig) {
	d := o.dur(sim.Time(5*time.Minute), sim.Time(60*time.Second))
	world, route := fairnessWorld(o.seed(), d)
	window := d / 4
	clients := make([]core.ClientConfig, n)
	for i := range clients {
		clients[i] = core.ClientConfig{
			ID:          i,
			Preset:      core.MultiChannelMultiAP,
			Mobility:    route,
			StartOffset: sim.Time(i) * window / sim.Time(n),
		}
	}
	world.Alloc = v
	return world, clients
}

// FairnessStudy sweeps arms × populations, one fleet job per cell (a cell
// is one N-client scenario and cannot shard further). Memoized under the
// experiment's canonical key.
func FairnessStudy(o Options) *FairnessResults {
	return memo(o, "fairness", func() *FairnessResults {
		d := o.dur(sim.Time(5*time.Minute), sim.Time(60*time.Second))
		var runs []run
		for _, v := range fairnessArms {
			for _, n := range fairnessSizes {
				world, clients := FairnessScenario(o, n, v)
				runs = append(runs, run{world: world, clients: clients})
			}
		}
		flat := sweep(o, runs, func(i int) string {
			v, n := fairnessArms[i/len(fairnessSizes)], fairnessSizes[i%len(fairnessSizes)]
			return fmt.Sprintf("fairness#arm=%s,n=%d", armName(v), n)
		})
		res := &FairnessResults{Sizes: fairnessSizes, Arms: fairnessArms, Duration: d}
		for i := range fairnessArms {
			res.Results = append(res.Results, flat[i*len(fairnessSizes):(i+1)*len(fairnessSizes)])
		}
		return res
	})
}

// FairnessTable renders the frontier: per (policy, population) fairness
// and goodput, with the contention counters behind them.
func FairnessTable(r *FairnessResults) Table {
	t := Table{
		ID: "fairness",
		Title: fmt.Sprintf("fairness frontier: association policy vs population (%v per run)",
			time.Duration(r.Duration)),
		Columns: []string{"policy", "clients", "jain", "aggregate KB/s", "mean KB/s",
			"p50 KB/s", "connectivity", "collisions"},
	}
	for ai, v := range r.Arms {
		for si, n := range r.Sizes {
			p := r.Results[ai][si]
			t.Rows = append(t.Rows, []string{
				armName(v),
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%.3f", p.JainFairness),
				fmt.Sprintf("%.1f", p.AggregateKBps),
				fmt.Sprintf("%.1f", p.MeanKBps),
				fmt.Sprintf("%.1f", p.P50KBps),
				fmt.Sprintf("%.3f", p.MeanConnectivity),
				fmt.Sprintf("%d", p.Medium.Collisions),
			})
		}
	}
	return t
}

// FairnessJainFigure plots each policy's Jain index against population
// size: the heuristic's collapse and how far each allocator lifts it.
func FairnessJainFigure(r *FairnessResults) Figure {
	f := Figure{
		ID:     "fairness-jain",
		Title:  "Jain fairness vs population size by association policy",
		XLabel: "clients on the corridor",
		YLabel: "Jain index",
	}
	for ai, v := range r.Arms {
		s := Series{Name: armName(v)}
		for si, n := range r.Sizes {
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, r.Results[ai][si].JainFairness)
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// FairnessGoodputFigure plots each policy's aggregate goodput frontier —
// fairness must not be bought by throwing capacity away.
func FairnessGoodputFigure(r *FairnessResults) Figure {
	f := Figure{
		ID:     "fairness-goodput",
		Title:  "aggregate goodput vs population size by association policy",
		XLabel: "clients on the corridor",
		YLabel: "aggregate goodput (KB/s)",
	}
	for ai, v := range r.Arms {
		s := Series{Name: armName(v)}
		for si, n := range r.Sizes {
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, r.Results[ai][si].AggregateKBps)
		}
		f.Series = append(f.Series, s)
	}
	return f
}
