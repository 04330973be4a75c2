package experiments

import (
	"fmt"
	"time"

	"spider/internal/core"
	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/ipam"
	"spider/internal/ipnet"
	"spider/internal/lmm"
	"spider/internal/mobility"
	"spider/internal/sim"
)

// The rush-hour study stresses the address plane instead of the radio: a
// plaza of APs on one backhaul segment, sharing one IPAM pool hierarchy,
// with a stream of short-lived vehicles churning leases through it. Each
// vehicle crosses the plaza in under a minute and then parks out of radio
// range without ever releasing its lease — exactly the vanished-vehicle
// churn a roadside deployment sees at commute time. The sweep compares
// three address-plane policies under byte-identical radio conditions
// (same seed, sites, routes, and renewal cadence):
//
//	single-pool    one shared pool, leases never reclaimed
//	+failover      adds an ordered backup pool and per-AP reserves
//	+failover+gc   adds the sim-time expiry sweep that reclaims
//	               vanished vehicles' addresses
//
// and attributes every failed join to the address plane (DHCP refused or
// timed out on an exhausted pool) or to the radio (association lost the
// race), so the table shows how much of the join-failure rate is IPAM's
// fault under each policy.

const (
	// rushHourAPs is the plaza AP count; every AP shares the segment.
	rushHourAPs = 4
	// rushHourSpacing is the AP spacing along the plaza in metres.
	rushHourSpacing = 120.0
	// rushHourSpeed is the vehicle speed (m/s) — commute crawl it is not:
	// vehicles clear the plaza quickly, maximizing lease churn.
	rushHourSpeed = 15.0
	// rushHourLeaseSecs is the advertised lease. Short on purpose: renewal
	// traffic is identical in every arm, and the GC arm reclaims a
	// vanished vehicle one lease after its last renewal.
	rushHourLeaseSecs = 30
	// rushHourReserve is the per-AP reserved-range size in the failover
	// arms: a burst at one AP cannot take a neighbour's last addresses.
	rushHourReserve = 2
)

// RushHourArm is one address-plane policy's measured outcome.
type RushHourArm struct {
	Name    string
	Clients int
	// Served counts vehicles that completed at least one join.
	Served int
	// Attempts/Completed count individual join attempts.
	Attempts  int
	Completed int
	// FailedDHCP are attempts that died in address acquisition (the
	// IPAM-attributed failures); FailedRadio died at association; FailedPing
	// reached an address but no connectivity.
	FailedDHCP  int
	FailedRadio int
	FailedPing  int
	// IPAM snapshots the address plane's own counters for the arm.
	IPAM ipam.Stats
	// PoolRefusals is the servers' refused-request total (exhaustion only).
	PoolRefusals int
}

// RushHourResults holds the sweep for rendering.
type RushHourResults struct {
	N        int
	Duration sim.Time
	Arms     []RushHourArm
}

// rushHourPrefix picks the smallest CIDR block at base with at least
// minHosts usable host addresses — how the study sizes its pools to the
// vehicle count while still exercising real subnet carving.
func rushHourPrefix(base ipnet.Addr, minHosts int) ipnet.Prefix {
	for bits := 30; bits >= 16; bits-- {
		if p := ipnet.PrefixFrom(base, bits); p.NumHosts() >= uint64(minHosts) {
			return p
		}
	}
	return ipnet.PrefixFrom(base, 16)
}

// rushHourIPAM builds one arm's address plan. Pools are sized to about a
// sixth of the vehicle count: far below the rush's cumulative demand (so
// a never-reclaiming plan must exhaust) yet above its steady-state
// concurrent demand (so reclaim keeps up).
func rushHourIPAM(n int, failover bool) *ipam.Config {
	minHosts := n / 6
	if minHosts < 8 {
		minHosts = 8
	}
	primary := ipam.PoolSpec{Name: "primary", CIDR: rushHourPrefix(ipnet.AddrFrom4(172, 16, 0, 0), minHosts)}
	if !failover {
		return &ipam.Config{
			Pools:  []ipam.PoolSpec{primary},
			Groups: []ipam.GroupSpec{{Name: "plaza", Pools: []string{"primary"}}},
		}
	}
	backup := ipam.PoolSpec{Name: "backup", CIDR: rushHourPrefix(ipnet.AddrFrom4(172, 17, 0, 0), minHosts)}
	return &ipam.Config{
		Pools:        []ipam.PoolSpec{primary, backup},
		Groups:       []ipam.GroupSpec{{Name: "plaza", Pools: []string{"primary", "backup"}}},
		ReservePerAP: rushHourReserve,
	}
}

// rushHourWorld builds the plaza world for one arm. Radio-side parameters
// are identical across arms; only the address plan and the expiry sweep
// differ.
func rushHourWorld(seed int64, d sim.Time, plan *ipam.Config, gc bool) core.WorldConfig {
	sites := make([]mobility.APSite, rushHourAPs)
	for i := range sites {
		sites[i] = mobility.APSite{
			Pos:     geo.Point{X: float64(i) * rushHourSpacing, Y: 15},
			Channel: dot11.Channel1,
			SSID:    fmt.Sprintf("plaza-%d", i),
			Open:    true, BackhaulBps: 4e6,
			Segment: "plaza",
		}
	}
	return core.WorldConfig{
		Seed:     seed,
		Duration: d,
		Sites:    sites,
		IPAM:     plan,
		AP: core.APOverrides{
			LeaseSecs:          rushHourLeaseSecs,
			DisableLeaseExpiry: !gc,
		},
	}
}

// rushHourRoute is the vehicle path: approach, cross the plaza, and park
// well past the last AP's radio range — the lease holder vanishes.
func rushHourRoute() (mobility.Model, sim.Time) {
	start, end := geo.Point{X: -60, Y: 0}, geo.Point{X: float64(rushHourAPs-1)*rushHourSpacing + 220, Y: 0}
	cross := sim.Time(float64(time.Second) * (end.X - start.X) / rushHourSpeed)
	return mobility.NewWaypoints([]geo.Point{start, end}, rushHourSpeed, false), cross
}

// rushHourClients builds n join-only vehicles whose departures spread the
// rush across the run: vehicle i leaves at i·stagger, crosses, parks.
func rushHourClients(n int, d sim.Time) []core.ClientConfig {
	route, cross := rushHourRoute()
	stagger := sim.Time(250 * time.Millisecond)
	if d > cross {
		stagger = (d - cross) / sim.Time(n)
	}
	clients := make([]core.ClientConfig, n)
	for i := range clients {
		clients[i] = core.ClientConfig{
			ID:             i,
			Preset:         core.SingleChannelMultiAP,
			PrimaryChannel: dot11.Channel1,
			Mobility:       route,
			StartOffset:    sim.Time(i) * stagger,
			DisableTraffic: true,
		}
	}
	return clients
}

// rushHourArms declares the swept policies in presentation order.
func rushHourArms(n int) []struct {
	name string
	plan *ipam.Config
	gc   bool
} {
	return []struct {
		name string
		plan *ipam.Config
		gc   bool
	}{
		{"single-pool", rushHourIPAM(n, false), false},
		{"+failover", rushHourIPAM(n, true), false},
		{"+failover+gc", rushHourIPAM(n, true), true},
	}
}

// measureRushHourArm folds one arm's population result into its row.
func measureRushHourArm(name string, p core.PopulationResult) RushHourArm {
	arm := RushHourArm{Name: name, Clients: len(p.Clients),
		IPAM: p.IPAM, PoolRefusals: p.DHCPPoolExhausted}
	for _, r := range p.Clients {
		served := false
		for _, j := range r.Joins {
			arm.Attempts++
			switch j.Stage {
			case lmm.StageComplete:
				arm.Completed++
				served = true
			case lmm.StageDHCPFailed:
				arm.FailedDHCP++
			case lmm.StagePingFailed:
				arm.FailedPing++
			default:
				arm.FailedRadio++
			}
		}
		if served {
			arm.Served++
		}
	}
	return arm
}

// RushHourScenario returns one arm of the rush-hour study by index — the
// world and its staggered vehicles. The study runs every arm from it, so
// a caller that executes an arm directly through core.RunPopulation
// reproduces the study's numbers for that arm exactly.
func RushHourScenario(o Options, arm int) (core.WorldConfig, []core.ClientConfig) {
	d := o.dur(sim.Time(10*time.Minute), sim.Time(90*time.Second))
	n := o.n(300, 24)
	a := rushHourArms(n)[arm]
	return rushHourWorld(o.seed(), d, a.plan, a.gc), rushHourClients(n, d)
}

// RushHourStudy sweeps the three address-plane policies, one fleet job
// per arm (an arm is one N-client scenario and cannot shard further).
// Memoized under the experiment's canonical key.
func RushHourStudy(o Options) *RushHourResults {
	return memo(o, "rushhour", func() *RushHourResults {
		d := o.dur(sim.Time(10*time.Minute), sim.Time(90*time.Second))
		n := o.n(300, 24)
		arms := rushHourArms(n)
		runs := make([]run, len(arms))
		for i := range arms {
			world, clients := RushHourScenario(o, i)
			runs[i] = run{world: world, clients: clients}
		}
		pops := sweep(o, runs, func(i int) string { return "rushhour#" + arms[i].name })
		res := &RushHourResults{N: n, Duration: d}
		for i, a := range arms {
			res.Arms = append(res.Arms, measureRushHourArm(a.name, pops[i]))
		}
		return res
	})
}

// RushHourTable renders the sweep: who got an address, who was refused,
// and what the address plane did about it.
func RushHourTable(r *RushHourResults) Table {
	t := Table{
		ID: "rushhour",
		Title: fmt.Sprintf("rush-hour lease churn: %d vehicles through a shared plaza (%v per run)",
			r.N, time.Duration(r.Duration)),
		Columns: []string{"plan", "served", "attempts", "completed", "dhcp-failed",
			"radio-failed", "allocs", "failovers", "reclaimed", "refusals"},
	}
	for _, a := range r.Arms {
		t.Rows = append(t.Rows, []string{
			a.Name,
			fmt.Sprintf("%d/%d", a.Served, a.Clients),
			fmt.Sprintf("%d", a.Attempts),
			fmt.Sprintf("%d", a.Completed),
			fmt.Sprintf("%d", a.FailedDHCP),
			fmt.Sprintf("%d", a.FailedRadio+a.FailedPing),
			fmt.Sprintf("%d", a.IPAM.Allocs),
			fmt.Sprintf("%d", a.IPAM.Failovers),
			fmt.Sprintf("%d", a.IPAM.Reclaimed),
			fmt.Sprintf("%d", a.PoolRefusals),
		})
	}
	return t
}

// RushHourFigure plots the IPAM-attributed join-failure rate and the
// served-vehicle fraction across the three policies: the failure curve
// falls and the served curve rises as failover and GC come in.
func RushHourFigure(r *RushHourResults) Figure {
	fail := Series{Name: "ipam-attributed join-failure rate"}
	served := Series{Name: "served-vehicle fraction"}
	for i, a := range r.Arms {
		x := float64(i)
		fRate := 0.0
		if a.Attempts > 0 {
			fRate = float64(a.FailedDHCP) / float64(a.Attempts)
		}
		sFrac := 0.0
		if a.Clients > 0 {
			sFrac = float64(a.Served) / float64(a.Clients)
		}
		fail.X = append(fail.X, x)
		fail.Y = append(fail.Y, fRate)
		served.X = append(served.X, x)
		served.Y = append(served.Y, sFrac)
	}
	return Figure{
		ID:     "rushhour-failures",
		Title:  "address-plane policy vs join failures (0=single-pool 1=+failover 2=+failover+gc)",
		XLabel: "policy arm",
		YLabel: "fraction",
		Series: []Series{fail, served},
	}
}
