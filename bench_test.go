// Package spider_test benchmarks every table and figure of the paper's
// evaluation at reduced fidelity, plus the core data-path microbenchmarks.
// Each BenchmarkFigureN/BenchmarkTableN regenerates the corresponding
// artifact; run with
//
//	go test -bench=. -benchmem
//
// For full-fidelity numbers use cmd/spider-bench (these benches use a small
// Scale so a full sweep stays tractable).
package spider_test

import (
	"testing"
	"time"

	"spider"
	"spider/internal/experiments"
	"spider/internal/fleet"
)

// benchOpts returns low-fidelity options keyed by the benchmark's own
// iteration index so repeated iterations stay deterministic but distinct.
func benchOpts(i int) experiments.Options {
	return experiments.Options{Seed: int64(i + 1), Scale: 0.1}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure2(benchOpts(i))
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure3(benchOpts(i))
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure4(benchOpts(i))
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure5(benchOpts(i))
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure6(benchOpts(i))
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure7(benchOpts(i))
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure8(benchOpts(i))
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(benchOpts(i))
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure10(benchOpts(i))
	}
}

// BenchmarkTownStudy drives the full Table 2 configuration set; Figures
// 11-13 and 16-17 and Tables 2/4 all derive from its output.
func BenchmarkTownStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := experiments.TownStudy(benchOpts(i))
		experiments.Table2(tr)
		experiments.Table4(tr)
		experiments.Figure11(tr)
		experiments.Figure12(tr)
		experiments.Figure13(tr)
		experiments.Figure16(benchOpts(i), tr)
		experiments.Figure17(benchOpts(i), tr)
		experiments.APDensity(tr)
	}
}

// BenchmarkFigure5Fleet runs the largest join sweep through the parallel
// execution engine at the machine's core count; compare against
// BenchmarkFigure5 for the sharding speedup (identical output either way).
func BenchmarkFigure5Fleet(b *testing.B) {
	pool := fleet.New(fleet.Config{})
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := benchOpts(i)
		o.Fleet = pool.Group("fig5")
		experiments.Figure5(o)
	}
}

// BenchmarkTownStudyFleet is BenchmarkTownStudy with the town drives
// sharded across workers and memoized in the pool's result cache.
func BenchmarkTownStudyFleet(b *testing.B) {
	pool := fleet.New(fleet.Config{})
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := benchOpts(i)
		o.Fleet = pool.Group("town")
		tr := experiments.TownStudy(o)
		experiments.Table2(tr)
		experiments.Table4(tr)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(benchOpts(i))
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure14(benchOpts(i))
	}
}

func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure15(benchOpts(i))
	}
}

func BenchmarkAppendixA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AppendixA(benchOpts(i))
	}
}

// BenchmarkScenarioSecond measures simulator speed: virtual seconds of a
// busy single-channel multi-AP town scenario per wall-clock benchmark op.
func BenchmarkScenarioSecond(b *testing.B) {
	loop := []spider.Point{{X: 0, Y: 0}, {X: 1200, Y: 0}, {X: 1200, Y: 600}, {X: 0, Y: 600}}
	route := append(append([]spider.Point(nil), loop...), loop[0])
	sites := spider.Deploy(1, route, spider.DefaultDeploy())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spider.Run(
			spider.WorldConfig{Seed: int64(i + 1), Duration: 30 * time.Second, Sites: sites},
			spider.ClientConfig{Preset: spider.SingleChannelMultiAP, Mobility: spider.Route(loop, 10, true)})
	}
}

// BenchmarkJoinModel measures the analytical model's evaluation cost at
// Figure 4's operating point.
func BenchmarkJoinModel(b *testing.B) {
	m := spider.PaperJoinModel(10 * time.Second)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.JoinProbability(0.4, 40*time.Second)
	}
}

// BenchmarkOptimalSchedule measures one Eq. 8-10 solve.
func BenchmarkOptimalSchedule(b *testing.B) {
	m := spider.PaperJoinModel(10 * time.Second)
	prob := spider.ScheduleProblem{
		Model: m, Bw: 11e6, T: 20 * time.Second,
		Channels: []spider.ChannelInput{{Joined: 0.5 * 11e6}, {Available: 0.5 * 11e6}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spider.OptimalSchedule(prob, 0.05)
	}
}

// BenchmarkPopulation runs one 8-client rung of the population experiment:
// the cost of an N-client scenario on a contended corridor (compare with
// BenchmarkScenarioSecond for the single-client baseline).
func BenchmarkPopulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := experiments.Options{Seed: int64(i + 1), Scale: 0.02}
		world, clients := experiments.PopulationScenario(o, 8)
		spider.RunPopulation(world, clients)
	}
}

// BenchmarkAblations regenerates the design-choice ablation tables
// (lease cache, timers, interface count, striping, adaptive scheduling).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts(i)
		experiments.AblationLeaseCache(o)
		experiments.AblationTimers(o)
		experiments.AblationInterfaces(o)
		experiments.AblationStriping(o)
		experiments.AblationAdaptive(o)
		experiments.AblationPredictive(o)
		experiments.AblationEnergy(o)
	}
}
