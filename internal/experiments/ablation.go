package experiments

import (
	"fmt"
	"time"

	"spider/internal/core"
	"spider/internal/stats"
)

// ablationRun builds a ch1 multi-AP town run with a mutated client.
func ablationRun(o Options, seed int64, mut func(*core.ClientConfig)) run {
	mob, sites := townLoop(seed, 10, 0.45)
	world := core.WorldConfig{
		Seed:     seed,
		Duration: o.dur(20*time.Minute, 2*time.Minute),
		Sites:    sites,
	}
	client := core.ClientConfig{Preset: core.SingleChannelMultiAP, Mobility: mob}
	if mut != nil {
		mut(&client)
	}
	return solo(world, client)
}

// ablationSweep runs one ablation arm over several seeds as sweep id.
func ablationSweep(o Options, id string, mut func(*core.ClientConfig)) []core.Result {
	runs := make([]run, o.n(3, 2))
	for s := range runs {
		runs[s] = ablationRun(o, o.seed()+int64(s)*331, mut)
	}
	return soloSweep(o, id, runs)
}

// meanOver runs one ablation arm over several seeds as sweep id and
// averages throughput, connectivity, and completed joins.
func meanOver(o Options, id string, mut func(*core.ClientConfig)) (tput, conn float64, joins float64) {
	var tputs, conns, joinCounts []float64
	for _, res := range ablationSweep(o, id, mut) {
		tputs = append(tputs, res.ThroughputKBps)
		conns = append(conns, res.Connectivity*100)
		joinCounts = append(joinCounts, float64(res.LMM.JoinsComplete))
	}
	return stats.Summarize(tputs).Mean, stats.Summarize(conns).Mean, stats.Summarize(joinCounts).Mean
}

// AblationLeaseCache isolates design element "per-BSSID DHCP lease
// caching": identical runs with the cache on and off.
func AblationLeaseCache(o Options) Table {
	t := Table{
		ID:      "ablation-leasecache",
		Title:   "Ablation: per-BSSID DHCP lease cache",
		Columns: []string{"configuration", "throughput", "connectivity", "joins completed"},
	}
	for _, cache := range []bool{true, false} {
		cache := cache
		name, arm := "lease cache on (Spider)", "on"
		if !cache {
			name, arm = "lease cache off", "off"
		}
		tput, conn, joins := meanOver(o, t.ID+"/"+arm, func(c *core.ClientConfig) {
			timers := core.ReducedTimers()
			timers.UseLeaseCache = cache
			c.Timers = &timers
		})
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%.1f KB/s", tput), fmt.Sprintf("%.1f%%", conn), fmt.Sprintf("%.1f", joins)})
	}
	return t
}

// AblationTimers isolates design element "reduced join timeouts".
func AblationTimers(o Options) Table {
	t := Table{
		ID:      "ablation-timers",
		Title:   "Ablation: reduced vs default join timers",
		Columns: []string{"configuration", "throughput", "connectivity", "joins completed"},
	}
	profiles := []struct {
		name, arm string
		timers    core.TimerProfile
	}{
		{"reduced timers (Spider)", "reduced", core.ReducedTimers()},
		{"default timers", "default", func() core.TimerProfile {
			p := core.DefaultTimers()
			p.FailureBackoff = 5 * time.Second // isolate the timer effect
			p.UseLeaseCache = true
			return p
		}()},
	}
	for _, pr := range profiles {
		timers := pr.timers
		tput, conn, joins := meanOver(o, t.ID+"/"+pr.arm, func(c *core.ClientConfig) { c.Timers = &timers })
		t.Rows = append(t.Rows, []string{pr.name,
			fmt.Sprintf("%.1f KB/s", tput), fmt.Sprintf("%.1f%%", conn), fmt.Sprintf("%.1f", joins)})
	}
	return t
}

// AblationInterfaces sweeps the virtual-interface count (design choice 3's
// "one interface per AP" needs enough interfaces to matter).
func AblationInterfaces(o Options) Table {
	t := Table{
		ID:      "ablation-vifs",
		Title:   "Ablation: number of virtual interfaces",
		Columns: []string{"interfaces", "throughput", "connectivity", "joins completed"},
	}
	for _, n := range []int{1, 2, 4, 7} {
		n := n
		tput, conn, joins := meanOver(o, fmt.Sprintf("%s/n=%d", t.ID, n), func(c *core.ClientConfig) { c.NumVIFs = n })
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f KB/s", tput), fmt.Sprintf("%.1f%%", conn), fmt.Sprintf("%.1f", joins)})
	}
	return t
}

// AblationStriping compares bulk per-link downloads against the
// data-striping extension fetching 2 MiB objects across live links.
func AblationStriping(o Options) Table {
	t := Table{
		ID:      "ablation-striping",
		Title:   "Ablation: data striping across concurrent links (2 MiB objects)",
		Columns: []string{"configuration", "objects fetched", "median object time", "throughput"},
	}
	const object = 2 << 20
	for _, cs := range []struct {
		name, arm string
		mut       func(*core.ClientConfig)
	}{
		{"striped, multi-AP", "multi-ap", func(c *core.ClientConfig) { c.StripeObjectBytes = object }},
		{"striped, single-AP", "single-ap", func(c *core.ClientConfig) {
			c.StripeObjectBytes = object
			c.Preset = core.SingleChannelSingleAP
		}},
	} {
		results := ablationSweep(o, t.ID+"/"+cs.arm, cs.mut)
		seeds := len(results)
		objects := 0
		var times []float64
		var tput float64
		for _, res := range results {
			objects += res.StripeObjects
			times = append(times, res.StripeObjectSecs...)
			tput += res.ThroughputKBps
		}
		med := stats.Summarize(times).Median
		t.Rows = append(t.Rows, []string{cs.name,
			fmt.Sprintf("%.1f", float64(objects)/float64(seeds)),
			fmt.Sprintf("%.1f s", med),
			fmt.Sprintf("%.1f KB/s", tput/float64(seeds))})
	}
	return t
}

// AblationAdaptive compares the future-work adaptive scheduler against
// both static modes at a slow and a fast speed.
func AblationAdaptive(o Options) Table {
	t := Table{
		ID:      "ablation-adaptive",
		Title:   "Ablation: adaptive scheduling vs static modes",
		Columns: []string{"speed", "mode", "throughput", "connectivity"},
	}
	modes := []struct {
		name   string
		preset core.Preset
	}{
		{"single-channel", core.SingleChannelMultiAP},
		{"multi-channel", core.MultiChannelMultiAP},
		{"adaptive", core.Adaptive},
	}
	speeds := []float64{3, 15}
	runs := make([]run, 0, len(speeds)*len(modes))
	for _, speed := range speeds {
		for _, cs := range modes {
			mob, sites := townLoop(o.seed(), speed, 0.45)
			runs = append(runs, solo(
				core.WorldConfig{Seed: o.seed(), Duration: o.dur(15*time.Minute, 2*time.Minute), Sites: sites},
				core.ClientConfig{Preset: cs.preset, Mobility: mob}))
		}
	}
	results := soloSweep(o, t.ID, runs)
	i := 0
	for _, speed := range speeds {
		for _, cs := range modes {
			res := results[i]
			i++
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f m/s", speed), cs.name,
				fmt.Sprintf("%.1f KB/s", res.ThroughputKBps),
				fmt.Sprintf("%.1f%%", res.Connectivity*100)})
		}
	}
	return t
}

// AblationPredictive evaluates the encounter-history extension: on a town
// whose channels differ by road segment, the predictive planner should
// converge past the static schedules as laps accumulate.
func AblationPredictive(o Options) Table {
	t := Table{
		ID:      "ablation-predictive",
		Title:   "Ablation: encounter-history channel planning",
		Columns: []string{"mode", "throughput", "connectivity", "joins completed"},
	}
	mob, sites := townLoop(o.seed(), 10, 0.45)
	modes := []struct {
		name   string
		preset core.Preset
	}{
		{"static single-channel (ch1)", core.SingleChannelMultiAP},
		{"static rotation (3 channels)", core.MultiChannelMultiAP},
		{"predictive planner", core.Predictive},
	}
	world := core.WorldConfig{Seed: o.seed(), Duration: o.dur(20*time.Minute, 3*time.Minute), Sites: sites}
	runs := make([]run, len(modes))
	for i, cs := range modes {
		runs[i] = solo(world, core.ClientConfig{Preset: cs.preset, Mobility: mob})
	}
	for i, res := range soloSweep(o, t.ID, runs) {
		t.Rows = append(t.Rows, []string{modes[i].name,
			fmt.Sprintf("%.1f KB/s", res.ThroughputKBps),
			fmt.Sprintf("%.1f%%", res.Connectivity*100),
			fmt.Sprintf("%d", res.LMM.JoinsComplete)})
	}
	return t
}

// AblationEnergy compares configurations by radio energy per delivered
// bit, the offload-efficiency motivation from the paper's introduction.
func AblationEnergy(o Options) Table {
	t := Table{
		ID:      "ablation-energy",
		Title:   "Energy efficiency by configuration",
		Columns: []string{"configuration", "throughput", "total energy", "per-bit"},
	}
	mob, sites := townLoop(o.seed(), 10, 0.45)
	modes := []struct {
		name   string
		preset core.Preset
	}{
		{"single-channel, multi-AP", core.SingleChannelMultiAP},
		{"multi-channel, multi-AP", core.MultiChannelMultiAP},
		{"stock", core.Stock},
	}
	world := core.WorldConfig{Seed: o.seed(), Duration: o.dur(15*time.Minute, 2*time.Minute), Sites: sites}
	runs := make([]run, len(modes))
	for i, cs := range modes {
		runs[i] = solo(world, core.ClientConfig{Preset: cs.preset, Mobility: mob})
	}
	for i, res := range soloSweep(o, t.ID, runs) {
		t.Rows = append(t.Rows, []string{modes[i].name,
			fmt.Sprintf("%.1f KB/s", res.ThroughputKBps),
			fmt.Sprintf("%.0f J", res.Energy.TotalJ()),
			fmt.Sprintf("%.2f µJ/bit", res.EnergyPerBitMicroJ)})
	}
	return t
}
