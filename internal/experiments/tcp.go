package experiments

import (
	"fmt"
	"time"

	"spider/internal/core"
	"spider/internal/dot11"
	"spider/internal/driver"
	"spider/internal/geo"
	"spider/internal/mobility"
	"spider/internal/phy"
	"spider/internal/sim"
	"spider/internal/stats"
)

// indoorSites places n open APs next to a stationary client, all on the
// given channels (cycled), each with the given backhaul bandwidth.
func indoorSites(n int, channels []dot11.Channel, backhaulBps float64) []mobility.APSite {
	sites := make([]mobility.APSite, n)
	for i := range sites {
		sites[i] = mobility.APSite{
			Pos:         geo.Point{X: 10 + float64(i)*3, Y: 0},
			Channel:     channels[i%len(channels)],
			SSID:        fmt.Sprintf("lab-%d", i),
			Open:        true,
			BackhaulBps: backhaulBps,
		}
	}
	return sites
}

// indoorCfg describes a stationary-client TCP run under an explicit
// schedule.
func indoorCfg(seed int64, sites []mobility.APSite, sched []driver.Slot, singleAP bool, dur sim.Time) run {
	preset := core.SingleChannelMultiAP
	if singleAP {
		preset = core.SingleChannelSingleAP
	}
	return solo(
		core.WorldConfig{Seed: seed, Duration: dur, Sites: sites},
		core.ClientConfig{Preset: preset, CustomSchedule: sched, Mobility: mobility.Static(geo.Point{})})
}

// Figure7 reproduces the indoor experiment: average TCP throughput as a
// function of the percentage of the 400 ms period spent on the primary
// channel (the rest split across the two other orthogonal channels).
func Figure7(o Options) Figure {
	fig := Figure{
		ID:     "fig7",
		Title:  "TCP throughput vs fraction of time on the primary channel (D=400ms)",
		XLabel: "% of time on primary channel",
		YLabel: "average throughput (Kb/s)",
	}
	s := Series{Name: "throughput"}
	sites := indoorSites(1, []dot11.Channel{dot11.Channel6}, 5e6)
	dur := o.dur(2*time.Minute, 20*time.Second)
	var scheds [][]driver.Slot
	for pct := 10; pct <= 100; pct += 10 {
		var sched []driver.Slot
		if pct == 100 {
			sched = []driver.Slot{{Channel: dot11.Channel6}}
		} else {
			on := time.Duration(pct) * 4 * time.Millisecond
			off := (400*time.Millisecond - on) / 2
			sched = []driver.Slot{
				{Channel: dot11.Channel6, Duration: on},
				{Channel: dot11.Channel1, Duration: off},
				{Channel: dot11.Channel11, Duration: off},
			}
		}
		s.X = append(s.X, float64(pct))
		scheds = append(scheds, sched)
	}
	s.Y = meanThroughputSweep(o, "fig7", sites, scheds, dur)
	fig.Series = append(fig.Series, s)
	return fig
}

// Figure8 reproduces the absolute-dwell experiment: average TCP throughput
// when the client cycles three channels spending x ms on each — throughput
// is non-monotonic in x because long absences trip TCP's RTO.
func Figure8(o Options) Figure {
	fig := Figure{
		ID:     "fig8",
		Title:  "TCP throughput vs absolute per-channel dwell (3 equal channels)",
		XLabel: "time spent on each channel (ms)",
		YLabel: "average throughput (Kb/s)",
	}
	s := Series{Name: "throughput"}
	sites := indoorSites(1, []dot11.Channel{dot11.Channel6}, 5e6)
	dur := o.dur(2*time.Minute, 20*time.Second)
	var scheds [][]driver.Slot
	for _, ms := range []int{33, 66, 100, 133, 200, 266, 333, 400} {
		dwell := time.Duration(ms) * time.Millisecond
		sched := []driver.Slot{
			{Channel: dot11.Channel6, Duration: dwell},
			{Channel: dot11.Channel1, Duration: dwell},
			{Channel: dot11.Channel11, Duration: dwell},
		}
		s.X = append(s.X, float64(ms))
		scheds = append(scheds, sched)
	}
	s.Y = meanThroughputSweep(o, "fig8", sites, scheds, dur)
	fig.Series = append(fig.Series, s)
	return fig
}

// meanThroughputSweep measures each schedule's seed-averaged throughput
// (Kb/s) in one sharded sweep; averaging over seeds smooths TCP-timeout
// resonance effects. Results are in schedule order.
func meanThroughputSweep(o Options, id string, sites []mobility.APSite, scheds [][]driver.Slot, dur sim.Time) []float64 {
	seeds := o.n(3, 2)
	var runs []run
	for _, sched := range scheds {
		for i := 0; i < seeds; i++ {
			runs = append(runs, indoorCfg(o.seed()+int64(i)*97, sites, sched, false, dur))
		}
	}
	results := soloSweep(o, id, runs)
	means := make([]float64, len(scheds))
	for si := range scheds {
		total := 0.0
		for i := 0; i < seeds; i++ {
			res := results[si*seeds+i]
			total += float64(res.BytesReceived) * 8 / 1000 / dur.Seconds()
		}
		means[si] = total / float64(seeds)
	}
	return means
}

// Table1 reproduces the channel-switch latency microbenchmark: the time to
// send a PSM frame to each associated AP on the old channel, perform the
// hardware reset, and send a PS-Poll to each associated AP on the new
// channel, as a function of the number of interfaces.
func Table1(o Options) Table {
	t := Table{
		ID:      "table1",
		Title:   "Channel switching latency (ms) of the Spider driver",
		Columns: []string{"num. of interfaces", "mean (ms)", "std dev (ms)"},
	}
	trials := o.n(200, 20)
	jobs := make([]job[[]float64], 5)
	for k := 0; k <= 4; k++ {
		k := k
		jobs[k] = job[[]float64]{
			id: fmt.Sprintf("table1#k=%d", k),
			fn: func() []float64 { return measureSwitchLatency(o.seed()+int64(k), k, trials) },
		}
	}
	for k, samples := range mapJobs(o, jobs) {
		sum := stats.Summarize(samples)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.3f", sum.Mean),
			fmt.Sprintf("%.3f", sum.Std),
		})
	}
	return t
}

// measureSwitchLatency performs the paper's switch sequence directly at
// the PHY: k serialized PSM frames on the old channel, a hardware reset,
// then k PS-Polls on the new channel; it returns per-switch latencies in
// milliseconds.
func measureSwitchLatency(seed int64, k, trials int) []float64 {
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	params := phy.Defaults()
	params.Loss = func(float64) float64 { return 0 }
	medium := phy.NewMedium(eng, rng.Stream("phy"), params)
	client := medium.NewRadio(dot11.MAC(1), func() geo.Point { return geo.Point{} }, 0)
	// k peer APs on each side of the switch.
	for i := 0; i < k; i++ {
		old := medium.NewRadio(dot11.MAC(uint32(100+i)), func() geo.Point { return geo.Point{X: 5} }, 0)
		old.SetChannel(dot11.Channel1, nil)
		old.SetReceiver(func(*dot11.Frame, phy.RxInfo) {})
		new := medium.NewRadio(dot11.MAC(uint32(200+i)), func() geo.Point { return geo.Point{X: 5} }, 0)
		new.SetChannel(dot11.Channel11, nil)
		new.SetReceiver(func(*dot11.Frame, phy.RxInfo) {})
	}
	client.SetChannel(dot11.Channel1, nil)
	eng.Run(100 * time.Millisecond)

	var samples []float64
	from, to := dot11.Channel1, dot11.Channel11
	fromBase, toBase := uint32(100), uint32(200)
	for trial := 0; trial < trials; trial++ {
		start := eng.Now()
		var finish sim.Time
		pending := k // PSM frames outstanding
		sendPolls := func() {
			polls := k
			if polls == 0 {
				finish = eng.Now()
				return
			}
			for i := 0; i < k; i++ {
				client.Send(dot11.Frame{Type: dot11.TypePSPoll, Addr1: dot11.MAC(toBase + uint32(i)), Addr3: dot11.MAC(toBase + uint32(i))}, func(bool) {
					polls--
					if polls == 0 {
						finish = eng.Now()
					}
				})
			}
		}
		reset := func() { client.SetChannel(to, sendPolls) }
		if k == 0 {
			reset()
		} else {
			for i := 0; i < k; i++ {
				client.Send(dot11.Frame{Type: dot11.TypeNullData, PowerMgmt: true, Addr1: dot11.MAC(fromBase + uint32(i)), Addr3: dot11.MAC(fromBase + uint32(i))}, func(bool) {
					pending--
					if pending == 0 {
						reset()
					}
				})
			}
		}
		eng.Run(eng.Now() + time.Second)
		if finish > start {
			samples = append(samples, (finish-start).Seconds()*1000)
		}
		from, to = to, from
		fromBase, toBase = toBase, fromBase
	}
	return samples
}

// Figure10 reproduces the throughput microbenchmark: mean aggregate
// throughput versus per-AP backhaul bandwidth for five configurations.
func Figure10(o Options) Figure {
	fig := Figure{
		ID:     "fig10",
		Title:  "Aggregate throughput vs backhaul bandwidth per AP",
		XLabel: "backhaul bandwidth per AP (Mbps)",
		YLabel: "average throughput (KBps)",
	}
	dur := o.dur(time.Minute, 15*time.Second)
	bws := []float64{0.5e6, 1e6, 1.5e6, 2e6, 2.5e6, 3e6, 4e6, 5e6}
	if o.scale() < 1 {
		bws = []float64{0.5e6, 2e6, 5e6}
	}
	kbps := func(res core.Result) float64 {
		return float64(res.BytesReceived) / 1024 / dur.Seconds()
	}
	oneStock := Series{Name: "one card, stock"}
	twoStock := Series{Name: "two cards, stock"}
	spider100 := Series{Name: "Spider, (100,0,0)"}
	spider5050 := Series{Name: "Spider, (50,0,50)"}
	spider100100 := Series{Name: "Spider, (100,0,100)"}
	// Five independent runs per backhaul point, executed as one sweep:
	// one stock card (reused for the two-card sum), the second card on an
	// orthogonal channel, and three Spider schedules.
	const runsPer = 5
	var runs []run
	for _, bw := range bws {
		twoChan := indoorSites(2, []dot11.Channel{dot11.Channel1, dot11.Channel11}, bw)
		runs = append(runs,
			// One card, stock driver: a single AP on channel 1.
			indoorCfg(o.seed(), indoorSites(1, []dot11.Channel{dot11.Channel1}, bw),
				[]driver.Slot{{Channel: dot11.Channel1}}, true, dur),
			// Two physical cards: two independent dedicated radios;
			// modelled as the sum of two independent single-card runs on
			// orthogonal channels (no shared airtime between channels).
			indoorCfg(o.seed()+1, indoorSites(1, []dot11.Channel{dot11.Channel11}, bw),
				[]driver.Slot{{Channel: dot11.Channel11}}, true, dur),
			// Spider on one channel with two APs.
			indoorCfg(o.seed(), indoorSites(2, []dot11.Channel{dot11.Channel1}, bw),
				[]driver.Slot{{Channel: dot11.Channel1}}, false, dur),
			// Spider across two channels, 50 ms and 100 ms dwells.
			indoorCfg(o.seed(), twoChan, []driver.Slot{
				{Channel: dot11.Channel1, Duration: 50 * time.Millisecond},
				{Channel: dot11.Channel11, Duration: 50 * time.Millisecond},
			}, false, dur),
			indoorCfg(o.seed(), twoChan, []driver.Slot{
				{Channel: dot11.Channel1, Duration: 100 * time.Millisecond},
				{Channel: dot11.Channel11, Duration: 100 * time.Millisecond},
			}, false, dur))
	}
	results := soloSweep(o, "fig10", runs)
	for bi, bw := range bws {
		x := bw / 1e6
		one, oneB := results[bi*runsPer], results[bi*runsPer+1]
		sp1, sp50, sp100 := results[bi*runsPer+2], results[bi*runsPer+3], results[bi*runsPer+4]
		oneStock.X = append(oneStock.X, x)
		oneStock.Y = append(oneStock.Y, kbps(one))
		twoStock.X = append(twoStock.X, x)
		twoStock.Y = append(twoStock.Y, kbps(one)+kbps(oneB))
		spider100.X = append(spider100.X, x)
		spider100.Y = append(spider100.Y, kbps(sp1))
		spider5050.X = append(spider5050.X, x)
		spider5050.Y = append(spider5050.Y, kbps(sp50))
		spider100100.X = append(spider100100.X, x)
		spider100100.Y = append(spider100100.Y, kbps(sp100))
	}
	fig.Series = []Series{oneStock, twoStock, spider100, spider5050, spider100100}
	return fig
}
