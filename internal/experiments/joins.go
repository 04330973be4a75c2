package experiments

import (
	"fmt"
	"time"

	"spider/internal/core"
	"spider/internal/dot11"
	"spider/internal/driver"
	"spider/internal/geo"
	"spider/internal/lmm"
	"spider/internal/mobility"
	"spider/internal/sim"
	"spider/internal/stats"
)

// townLoop returns the standard evaluation town: a 1.2 km × 0.6 km block
// loop with Poisson roadside APs in the measured channel mix.
func townLoop(seed int64, speed float64, openFraction float64) (mobility.Model, []mobility.APSite) {
	loop := []geo.Point{
		{X: 0, Y: 0}, {X: 1200, Y: 0}, {X: 1200, Y: 600}, {X: 0, Y: 600},
	}
	m := mobility.NewWaypoints(loop, speed, true)
	dc := mobility.DefaultDeployConfig()
	dc.APsPerKm = 25
	dc.OpenFraction = openFraction
	// Deploy along the closed loop.
	route := append(append([]geo.Point(nil), loop...), loop[0])
	sites := mobility.DeployAlongRoute(sim.NewRNG(seed).Stream("deploy"), route, dc)
	return m, sites
}

// fractionSchedule builds the paper's f6 schedule: fraction x of period D
// on channel 6, the remainder split between channels 1 and 11.
func fractionSchedule(x float64, d sim.Time) []driver.Slot {
	if x >= 1 {
		return []driver.Slot{{Channel: dot11.Channel6}}
	}
	on := sim.Time(float64(d) * x)
	off := (d - on) / 2
	return []driver.Slot{
		{Channel: dot11.Channel6, Duration: on},
		{Channel: dot11.Channel1, Duration: off},
		{Channel: dot11.Channel11, Duration: off},
	}
}

// joinCfg builds the traffic-free vehicular run every join experiment
// uses. Each run owns its timers copy so sharded runs never alias.
func joinCfg(o Options, seed int64, schedule []driver.Slot, timers core.TimerProfile, numVIFs int) run {
	mob, sites := townLoop(seed, 10, 0.5)
	return solo(
		core.WorldConfig{Seed: seed, Duration: o.dur(20*time.Minute, time.Minute), Sites: sites},
		core.ClientConfig{
			Preset:         core.SingleChannelMultiAP,
			CustomSchedule: schedule,
			Timers:         &timers,
			Mobility:       mob,
			NumVIFs:        numVIFs,
			DisableTraffic: true,
		})
}

// joinSweep executes a batch of join runs as one fleet sweep and returns
// each run's join records in run order.
func joinSweep(o Options, id string, runs []run) [][]lmm.JoinRecord {
	results := soloSweep(o, id, runs)
	joins := make([][]lmm.JoinRecord, len(results))
	for i, r := range results {
		joins[i] = r.Joins
	}
	return joins
}

// successCDF builds a Series whose Y at time x is the fraction of attempts
// (denominator) whose duration sample is ≤ x seconds.
func successCDF(name string, durations []float64, attempts int, maxX float64, points int) Series {
	c := stats.NewCDF(durations)
	s := Series{Name: name}
	scale := 0.0
	if attempts > 0 {
		scale = float64(len(durations)) / float64(attempts)
	}
	for i := 0; i <= points; i++ {
		x := maxX * float64(i) / float64(points)
		s.X = append(s.X, x)
		s.Y = append(s.Y, c.P(x)*scale)
	}
	return s
}

// Figure5 reproduces the association-time experiment: the rate of
// successful link-layer associations on channel 6 as a function of the
// fraction of the 400 ms period spent there.
func Figure5(o Options) Figure {
	fig := Figure{
		ID:     "fig5",
		Title:  "Successful associations vs time, by channel-6 schedule fraction",
		XLabel: "time to associate (s)",
		YLabel: "fraction of successful associations",
	}
	timers := core.ReducedTimers()
	fracs := []float64{0.25, 0.50, 0.75, 1.00}
	seeds := int64(o.n(3, 1))
	var runs []run
	for i, frac := range fracs {
		sched := fractionSchedule(frac, 400*time.Millisecond)
		for s := int64(0); s < seeds; s++ {
			runs = append(runs, joinCfg(o, o.seed()+s*1000+int64(i), sched, timers, 7))
		}
	}
	joins := joinSweep(o, "fig5", runs)
	for i, frac := range fracs {
		var durations []float64
		attempts := 0
		for s := int64(0); s < seeds; s++ {
			for _, j := range joins[int64(i)*seeds+s] {
				if j.Channel != dot11.Channel6 {
					continue
				}
				attempts++
				if j.Stage != lmm.StageAssocFailed {
					durations = append(durations, j.AssocDur.Seconds())
				}
			}
		}
		fig.Series = append(fig.Series,
			successCDF(fmt.Sprintf("%.0f%%", frac*100), durations, attempts, 1.0, 20))
	}
	return fig
}

// Figure6 reproduces the DHCP experiment: the rate of successful leases on
// channel 6 versus time, by schedule fraction and DHCP timeout.
func Figure6(o Options) Figure {
	fig := Figure{
		ID:     "fig6",
		Title:  "Successful DHCP leases vs time, by schedule fraction and timeout",
		XLabel: "time to obtain dhcp lease (s)",
		YLabel: "fraction of successful leases",
	}
	type cfg struct {
		name  string
		frac  float64
		retry sim.Time
		deflt bool
	}
	cases := []cfg{
		{"25% - 100ms", 0.25, 100 * time.Millisecond, false},
		{"50% - 100ms", 0.50, 100 * time.Millisecond, false},
		{"100% - 100ms", 1.0, 100 * time.Millisecond, false},
		{"100% - default", 1.0, 0, true},
	}
	seeds := int64(o.n(3, 1))
	var runs []run
	for i, cs := range cases {
		timers := core.ReducedTimers()
		if cs.deflt {
			timers = core.DefaultTimers()
			timers.FailureBackoff = 5 * time.Second // keep attempts coming
		} else {
			timers.DHCPRetry = cs.retry
		}
		sched := fractionSchedule(cs.frac, 400*time.Millisecond)
		for s := int64(0); s < seeds; s++ {
			runs = append(runs, joinCfg(o, o.seed()+s*1000+int64(i)*37, sched, timers, 7))
		}
	}
	joins := joinSweep(o, "fig6", runs)
	for i, cs := range cases {
		var durations []float64
		attempts := 0
		for s := int64(0); s < seeds; s++ {
			for _, j := range joins[int64(i)*seeds+s] {
				if j.Channel != dot11.Channel6 || j.Stage == lmm.StageAssocFailed {
					continue
				}
				attempts++ // reached DHCP
				if j.Stage == lmm.StagePingFailed || j.Stage == lmm.StageComplete {
					durations = append(durations, j.DHCPDur.Seconds())
				}
			}
		}
		fig.Series = append(fig.Series, successCDF(cs.name, durations, attempts, 15, 30))
	}
	return fig
}

// Table3 reproduces the DHCP failure-probability table across timeout and
// schedule configurations: mean ± stddev over seeds.
func Table3(o Options) Table {
	t := Table{
		ID:      "table3",
		Title:   "DHCP failure probabilities by timeout configuration",
		Columns: []string{"parameters", "failed dhcp"},
	}
	single := []driver.Slot{{Channel: dot11.Channel1}}
	third := []driver.Slot{
		{Channel: dot11.Channel1, Duration: 200 * time.Millisecond},
		{Channel: dot11.Channel6, Duration: 200 * time.Millisecond},
		{Channel: dot11.Channel11, Duration: 200 * time.Millisecond},
	}
	type cfg struct {
		name  string
		sched []driver.Slot
		retry sim.Time
		deflt bool
	}
	cases := []cfg{
		{"chan 1, linklayer: 100ms, dhcp: 600ms, 7 interfaces", single, 600 * time.Millisecond, false},
		{"chan 1, linklayer: 100ms, dhcp: 400ms, 7 interfaces", single, 400 * time.Millisecond, false},
		{"chan 1, linklayer: 100ms, dhcp: 200ms, 7 interfaces", single, 200 * time.Millisecond, false},
		{"3 chans, static 1/3 schedule, linklayer: 100ms, dhcp: 200ms, 7 interfaces", third, 200 * time.Millisecond, false},
		{"chan 1, default timer, 7 interfaces", single, 0, true},
		{"3 chans, static 1/3 schedule, default timer, 7 interfaces", third, 0, true},
	}
	seeds := o.n(5, 2)
	var runs []run
	for ci, cs := range cases {
		timers := core.ReducedTimers()
		if cs.deflt {
			timers = core.DefaultTimers()
			timers.FailureBackoff = 5 * time.Second
		} else {
			timers.DHCPRetry = cs.retry
		}
		for s := 0; s < seeds; s++ {
			runs = append(runs, joinCfg(o, o.seed()+int64(s)*211+int64(ci)*7919, cs.sched, timers, 7))
		}
	}
	joins := joinSweep(o, "table3", runs)
	for ci, cs := range cases {
		var rates []float64
		for s := 0; s < seeds; s++ {
			att, fail := 0, 0
			for _, j := range joins[ci*seeds+s] {
				if j.Stage == lmm.StageAssocFailed {
					continue
				}
				att++
				if j.Stage == lmm.StageDHCPFailed {
					fail++
				}
			}
			if att > 0 {
				rates = append(rates, float64(fail)/float64(att)*100)
			}
		}
		sum := stats.Summarize(rates)
		t.Rows = append(t.Rows, []string{cs.name, fmt.Sprintf("%.1f%% ±%.1f%%", sum.Mean, sum.Std)})
	}
	return t
}

// joinTimeSeriesCase is a shared config row for Figures 14 and 15.
type joinTimeSeriesCase struct {
	name    string
	sched   []driver.Slot
	timers  core.TimerProfile
	numVIFs int
}

// joinTimeFigure runs a set of cases and reports the CDF of the total join
// time (association + DHCP) for completed leases, normalized by attempts
// that began associating.
func joinTimeFigure(o Options, id, title string, cases []joinTimeSeriesCase) Figure {
	fig := Figure{
		ID:     id,
		Title:  title,
		XLabel: "time to join (association+dhcp) (s)",
		YLabel: "fraction of connections",
	}
	seeds := int64(o.n(3, 1))
	var runs []run
	for ci, cs := range cases {
		for s := int64(0); s < seeds; s++ {
			runs = append(runs, joinCfg(o, o.seed()+s*503+int64(ci)*101, cs.sched, cs.timers, cs.numVIFs))
		}
	}
	joins := joinSweep(o, id, runs)
	for ci, cs := range cases {
		var durations []float64
		attempts := 0
		for s := int64(0); s < seeds; s++ {
			for _, j := range joins[int64(ci)*seeds+s] {
				attempts++
				if j.Stage == lmm.StagePingFailed || j.Stage == lmm.StageComplete {
					durations = append(durations, (j.AssocDur + j.DHCPDur).Seconds())
				}
			}
		}
		fig.Series = append(fig.Series, successCDF(cs.name, durations, attempts, 15, 30))
	}
	return fig
}

// Figure14 reproduces the DHCP-timeout sweep: join-time CDFs for reduced
// timeouts on channel 1 and on a three-channel schedule.
func Figure14(o Options) Figure {
	single := []driver.Slot{{Channel: dot11.Channel1}}
	third := fractionSchedule(1.0/3, 600*time.Millisecond)
	mk := func(retry sim.Time, deflt bool) core.TimerProfile {
		t := core.ReducedTimers()
		if deflt {
			t = core.DefaultTimers()
			t.FailureBackoff = 5 * time.Second
		} else {
			t.DHCPRetry = retry
		}
		return t
	}
	return joinTimeFigure(o, "fig14", "Join time vs DHCP timeout", []joinTimeSeriesCase{
		{"200ms, channel 1", single, mk(200*time.Millisecond, false), 7},
		{"400ms, channel 1", single, mk(400*time.Millisecond, false), 7},
		{"600ms, channel 1", single, mk(600*time.Millisecond, false), 7},
		{"default, channel 1", single, mk(0, true), 7},
		{"default, 3 channels", third, mk(0, true), 7},
		{"200ms, 3 channels", third, mk(200*time.Millisecond, false), 7},
	})
}

// Figure15 reproduces the scheduling-policy sweep: join-time CDFs by
// interface count, schedule, and timeout profile.
func Figure15(o Options) Figure {
	single := []driver.Slot{{Channel: dot11.Channel1}}
	half := []driver.Slot{
		{Channel: dot11.Channel1, Duration: 200 * time.Millisecond},
		{Channel: dot11.Channel6, Duration: 200 * time.Millisecond},
	}
	third := fractionSchedule(1.0/3, 600*time.Millisecond)
	deflt := core.DefaultTimers()
	deflt.FailureBackoff = 5 * time.Second
	reduced := core.ReducedTimers()
	reduced.DHCPRetry = 200 * time.Millisecond
	return joinTimeFigure(o, "fig15", "Join time vs scheduling policy", []joinTimeSeriesCase{
		{"1 iface, ch1(100%), def. TO", single, deflt, 1},
		{"7 ifaces, ch1(100%), def. TO", single, deflt, 7},
		{"7 ifaces, ch1(100%), dhcp=200ms ll=100ms", single, reduced, 7},
		{"7 ifaces, ch1(50%) ch6(50%), def. TO", half, deflt, 7},
		{"7 ifaces, 3 chans eq., def. TO", third, deflt, 7},
		{"7 ifaces, 3 chans eq., dhcp=200ms ll=100ms", third, reduced, 7},
	})
}
