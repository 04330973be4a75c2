package experiments

import (
	"fmt"
	"time"

	"spider/internal/core"
	"spider/internal/dot11"
	"spider/internal/driver"
	"spider/internal/sim"
	"spider/internal/stats"
	"spider/internal/trace"
)

// TownResults bundles the full set of downtown driving runs that Table 2,
// Table 4, and Figures 11-13 and 16-17 share.
type TownResults struct {
	Duration sim.Time
	// Runs holds one result per configuration, keyed by the names below.
	Runs map[string]core.Result
}

// Town run keys.
const (
	RunCh1Multi    = "ch1-multi"
	RunCh1Single   = "ch1-single"
	RunMultiMulti  = "multi-multi"
	RunMultiSingle = "multi-single"
	RunCh6Single   = "ch6-single"
	RunStock       = "stock"
	RunTwoChMulti  = "2ch-multi"
)

// TownStudy drives the evaluation loop through every configuration the
// paper compares. All runs share the same town, route, and seed. The
// seven configurations are independent simulations, so they execute as
// one fleet sweep; the bundle is memoized under the canonical options key
// so every town-derived experiment (Tables 2/4, Figures 11-13 and 16-17,
// the AP-density summary) shares a single computation per invocation.
func TownStudy(o Options) *TownResults {
	return memo(o, "townstudy", func() *TownResults { return townStudy(o) })
}

func townStudy(o Options) *TownResults {
	dur := o.dur(30*time.Minute, 2*time.Minute)
	mob, sites := townLoop(o.seed(), 10, 0.4)
	world := core.WorldConfig{Seed: o.seed(), Duration: dur, Sites: sites}
	// Multi-channel static schedule: D = 600 ms split equally (paper's
	// Table 2 note).
	plan := []struct {
		key    string
		client core.ClientConfig
	}{
		{RunCh1Multi, core.ClientConfig{Preset: core.SingleChannelMultiAP, PrimaryChannel: dot11.Channel1}},
		{RunCh1Single, core.ClientConfig{Preset: core.SingleChannelSingleAP, PrimaryChannel: dot11.Channel1}},
		{RunMultiMulti, core.ClientConfig{Preset: core.MultiChannelMultiAP, SlotDuration: 200 * time.Millisecond}},
		{RunMultiSingle, core.ClientConfig{Preset: core.MultiChannelSingleAP, SlotDuration: 200 * time.Millisecond}},
		{RunCh6Single, core.ClientConfig{Preset: core.SingleChannelSingleAP, PrimaryChannel: dot11.Channel6}},
		{RunStock, core.ClientConfig{Preset: core.Stock}},
		{RunTwoChMulti, core.ClientConfig{Preset: core.MultiChannelMultiAP, CustomSchedule: []driver.Slot{
			{Channel: dot11.Channel1, Duration: 200 * time.Millisecond},
			{Channel: dot11.Channel6, Duration: 200 * time.Millisecond},
		}}},
	}
	runs := make([]run, len(plan))
	for i, p := range plan {
		client := p.client
		client.Mobility = mob
		runs[i] = solo(world, client)
	}
	results := soloSweep(o, "townstudy", runs)
	tr := &TownResults{Duration: dur, Runs: make(map[string]core.Result, len(plan))}
	for i, p := range plan {
		tr.Runs[p.key] = results[i]
	}
	return tr
}

func throughputRow(r core.Result) (string, string) {
	return fmt.Sprintf("%.1f KB/s", r.ThroughputKBps),
		fmt.Sprintf("%.1f%%", r.Connectivity*100)
}

// Table2 reports average throughput and connectivity for the paper's six
// configurations.
func Table2(tr *TownResults) Table {
	t := Table{
		ID:      "table2",
		Title:   "Avg. throughput and connectivity for Spider configurations",
		Columns: []string{"(config) parameters", "throughput", "connectivity"},
	}
	rows := []struct{ label, key string }{
		{"(1) Channel 1, Multi-AP", RunCh1Multi},
		{"(2) Channel 1, Single-AP", RunCh1Single},
		{"(3) Multi-channel, Multi-AP", RunMultiMulti},
		{"(4) Multi-channel, Single-AP", RunMultiSingle},
		{"(2) Channel 6, Single-AP", RunCh6Single},
		{"MadWiFi driver (stock)", RunStock},
	}
	for _, row := range rows {
		r := tr.Runs[row.key]
		tput, conn := throughputRow(r)
		t.Rows = append(t.Rows, []string{row.label, tput, conn})
	}
	return t
}

// Table4 reports the channel-count sweep: three channels, two channels,
// and a single channel.
func Table4(tr *TownResults) Table {
	t := Table{
		ID:      "table4",
		Title:   "Throughput and connectivity by number of scheduled channels",
		Columns: []string{"parameters", "throughput", "connectivity"},
	}
	rows := []struct{ label, key string }{
		{"3-channel (equal schedule)", RunMultiMulti},
		{"2-channel (equal schedule)", RunTwoChMulti},
		{"Single-channel", RunCh1Multi},
	}
	for _, row := range rows {
		r := tr.Runs[row.key]
		tput, conn := throughputRow(r)
		t.Rows = append(t.Rows, []string{row.label, tput, conn})
	}
	return t
}

// cdfSeries renders a sample set as a CDF series capped at maxX.
func cdfSeries(name string, samples []float64, maxX float64, points int) Series {
	c := stats.NewCDF(samples)
	s := Series{Name: name}
	for i := 0; i <= points; i++ {
		x := maxX * float64(i) / float64(points)
		s.X = append(s.X, x)
		s.Y = append(s.Y, c.P(x))
	}
	return s
}

// fourConfigs maps town runs to the figure legend used by Figs 11-13.
var fourConfigs = []struct{ label, key string }{
	{"single AP (ch1)", RunCh1Single},
	{"multiple APs (ch1)", RunCh1Multi},
	{"single AP (multi-channel)", RunMultiSingle},
	{"multiple APs (multi-channel)", RunMultiMulti},
}

// Figure11 reports the CDF of Internet connectivity durations.
func Figure11(tr *TownResults) Figure {
	fig := Figure{
		ID:     "fig11",
		Title:  "CDF of connection durations",
		XLabel: "connection duration (s)",
		YLabel: "frequency",
	}
	for _, cfgRow := range fourConfigs {
		fig.Series = append(fig.Series,
			cdfSeries(cfgRow.label, tr.Runs[cfgRow.key].ConnectionDurations, 250, 25))
	}
	return fig
}

// Figure12 reports the CDF of disruption lengths.
func Figure12(tr *TownResults) Figure {
	fig := Figure{
		ID:     "fig12",
		Title:  "CDF of disruption lengths",
		XLabel: "disruption length (s)",
		YLabel: "frequency",
	}
	for _, cfgRow := range fourConfigs {
		fig.Series = append(fig.Series,
			cdfSeries(cfgRow.label, tr.Runs[cfgRow.key].DisruptionDurations, 300, 30))
	}
	return fig
}

// Figure13 reports the CDF of instantaneous bandwidth while connected.
func Figure13(tr *TownResults) Figure {
	fig := Figure{
		ID:     "fig13",
		Title:  "CDF of instantaneous bandwidth during connectivity",
		XLabel: "bandwidth (KBps)",
		YLabel: "frequency",
	}
	for _, cfgRow := range fourConfigs {
		fig.Series = append(fig.Series,
			cdfSeries(cfgRow.label, tr.Runs[cfgRow.key].InstRatesKBps, 1200, 40))
	}
	return fig
}

// Figure16 compares mesh users' TCP flow durations with Spider's connection
// durations in its single-channel and multi-channel multi-AP modes.
func Figure16(o Options, tr *TownResults) Figure {
	fig := Figure{
		ID:     "fig16",
		Title:  "Connection lengths: wireless users vs Spider",
		XLabel: "connection duration (s)",
		YLabel: "frequency",
	}
	cfg := trace.DefaultMeshConfig()
	cfg.Flows = o.n(cfg.Flows, 2000)
	mesh := trace.Synthesize(sim.NewRNG(o.seed()).Stream("mesh"), cfg)
	fig.Series = append(fig.Series,
		cdfSeries("multiple APs (ch1)", tr.Runs[RunCh1Multi].ConnectionDurations, 100, 25),
		cdfSeries("users connection duration", mesh.FlowDurations, 100, 25),
		cdfSeries("multiple APs (multi-channel)", tr.Runs[RunMultiMulti].ConnectionDurations, 100, 25),
	)
	return fig
}

// Figure17 compares mesh users' inter-connection gaps with Spider's
// disruption lengths.
func Figure17(o Options, tr *TownResults) Figure {
	fig := Figure{
		ID:     "fig17",
		Title:  "Disruption lengths: wireless users vs Spider",
		XLabel: "disruption length (s)",
		YLabel: "frequency",
	}
	cfg := trace.DefaultMeshConfig()
	cfg.Flows = o.n(cfg.Flows, 2000)
	mesh := trace.Synthesize(sim.NewRNG(o.seed()).Stream("mesh"), cfg)
	fig.Series = append(fig.Series,
		cdfSeries("multiple APs (ch1)", tr.Runs[RunCh1Multi].DisruptionDurations, 300, 30),
		cdfSeries("user inter-connection", mesh.InterConnectionGaps, 300, 30),
		cdfSeries("multiple APs (multi-channel)", tr.Runs[RunMultiMulti].DisruptionDurations, 300, 30),
	)
	return fig
}

// APDensity reports how many concurrent APs Spider held in the ch1
// multi-AP run (Section 4.4's observation: mostly 1, sometimes 2-3).
func APDensity(tr *TownResults) Table {
	t := Table{
		ID:      "ap-density",
		Title:   "Fraction of time associated with k concurrent APs (ch1 multi-AP)",
		Columns: []string{"concurrent APs", "fraction of time"},
	}
	r := tr.Runs[RunCh1Multi]
	total := 0
	maxK := 0
	for k, secs := range r.LinkSeconds {
		total += secs
		if k > maxK {
			maxK = k
		}
	}
	for k := 0; k <= maxK; k++ {
		if total == 0 {
			break
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.1f%%", float64(r.LinkSeconds[k])/float64(total)*100),
		})
	}
	return t
}
