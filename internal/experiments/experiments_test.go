package experiments

import (
	"strings"
	"testing"

	"spider/internal/lmm"
)

// quick returns low-fidelity options for smoke tests.
func quick() Options { return Options{Seed: 1, Scale: 0.05} }

func TestRenderHelpers(t *testing.T) {
	f := Figure{
		ID: "x", Title: "t", XLabel: "a", YLabel: "b",
		Series: []Series{{Name: "s1", X: []float64{1, 2}, Y: []float64{0.5, 1}}},
	}
	txt := f.Render()
	if !strings.Contains(txt, "s1") || !strings.Contains(txt, "0.5") {
		t.Fatalf("render missing data:\n%s", txt)
	}
	csv := f.CSV()
	if !strings.Contains(csv, "s1,1,0.5") {
		t.Fatalf("csv missing row:\n%s", csv)
	}
	tbl := Table{ID: "y", Title: "u", Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	if !strings.Contains(tbl.Render(), "1") || !strings.Contains(tbl.CSV(), "a,b") {
		t.Fatal("table render broken")
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 0.1}
	if o.n(100, 5) != 10 {
		t.Fatalf("n = %d", o.n(100, 5))
	}
	if o.n(10, 5) != 5 {
		t.Fatal("floor not applied")
	}
	if (Options{}).n(100, 5) != 100 {
		t.Fatal("zero scale should mean full fidelity")
	}
	if (Options{}).seed() != 1 {
		t.Fatal("default seed should be 1")
	}
}

func TestFigure2ModelVsSim(t *testing.T) {
	fig := Figure2(Options{Seed: 1, Scale: 0.2})
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	// Model and simulation must agree pointwise within MC noise.
	for i := 0; i < 2; i++ {
		mdl, mc := fig.Series[2*i], fig.Series[2*i+1]
		for j := range mdl.X {
			if d := mdl.Y[j] - mc.Y[j]; d > 0.12 || d < -0.12 {
				t.Fatalf("series %s point %d: model %.3f vs sim %.3f", mdl.Name, j, mdl.Y[j], mc.Y[j])
			}
		}
	}
}

func TestFigure3Monotonicity(t *testing.T) {
	fig := Figure3(quick())
	for _, s := range fig.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] > s.Y[i-1]+1e-9 {
				t.Fatalf("series %s: p increases with βmax", s.Name)
			}
		}
	}
}

func TestFigure4DividingSpeed(t *testing.T) {
	figs := Figure4(quick())
	if len(figs) != 3 {
		t.Fatalf("figures = %d", len(figs))
	}
	for _, fig := range figs {
		ch2 := fig.Series[1]
		// The second channel's optimal share declines monotonically with
		// speed in every split.
		for i := 1; i < len(ch2.Y); i++ {
			if ch2.Y[i] > ch2.Y[i-1]+1 {
				t.Fatalf("%s: ch2 share grew with speed: %v", fig.ID, ch2.Y)
			}
		}
		// And at 20 m/s it is well below its 2.5 m/s value.
		if ch2.Y[len(ch2.Y)-1] > 0.6*ch2.Y[0] {
			t.Fatalf("%s: ch2 at 20 m/s (%v) not far below 2.5 m/s (%v)",
				fig.ID, ch2.Y[len(ch2.Y)-1], ch2.Y[0])
		}
	}
	rich := figs[0].Series[1] // 25/75 split, ch2 holds 75%
	if rich.Y[0] <= 0 {
		t.Fatalf("25/75: ch2 unused even at 2.5 m/s")
	}
	// The paper's headline: for the joined-rich split the divide sits
	// below ≈10 m/s.
	for _, row := range DividingSpeeds(quick()).Rows {
		if row[0] == "75/25" {
			var v float64
			if _, err := sscanF(row[1], &v); err != nil {
				t.Fatal(err)
			}
			if v > 12 {
				t.Fatalf("75/25 dividing speed = %v m/s, want ≲10", v)
			}
		}
	}
}

func TestTable1SwitchLatencyGrowsWithInterfaces(t *testing.T) {
	tbl := Table1(quick())
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var first, last float64
	if _, err := sscanF(tbl.Rows[0][1], &first); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanF(tbl.Rows[4][1], &last); err != nil {
		t.Fatal(err)
	}
	if first < 4.5 || first > 6 {
		t.Fatalf("0-interface latency = %v ms, want ≈5 (hardware reset)", first)
	}
	if last <= first {
		t.Fatalf("latency did not grow with interfaces: %v -> %v", first, last)
	}
}

func TestFigure5MoreChannelTimeFasterAssoc(t *testing.T) {
	fig := Figure5(Options{Seed: 1, Scale: 0.15})
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	// The 100% schedule must reach a higher success fraction at 400 ms
	// than the 25% schedule.
	at := func(s Series, x float64) float64 {
		for i := range s.X {
			if s.X[i] >= x {
				return s.Y[i]
			}
		}
		return s.Y[len(s.Y)-1]
	}
	if full, quarter := at(fig.Series[3], 0.4), at(fig.Series[0], 0.4); full <= quarter {
		t.Fatalf("assoc success at 400ms: 100%% %.3f <= 25%% %.3f", full, quarter)
	}
}

func TestTable3ShapesHold(t *testing.T) {
	tbl := Table3(quick())
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if !strings.Contains(r[1], "%") {
			t.Fatalf("row %v missing percentage", r)
		}
	}
}

func TestTownStudyHeadlineResults(t *testing.T) {
	// Short runs are noisy; a third of the full duration is the shortest
	// scale at which the connectivity ordering is stable.
	o := Options{Seed: 1, Scale: 0.34}
	tr := TownStudy(o)
	if len(tr.Runs) != 7 {
		t.Fatalf("runs = %d", len(tr.Runs))
	}
	ch1Multi := tr.Runs[RunCh1Multi]
	ch1Single := tr.Runs[RunCh1Single]
	multiMulti := tr.Runs[RunMultiMulti]
	// Headline 1: single-channel multi-AP beats single-channel single-AP
	// and multi-channel multi-AP on throughput.
	if ch1Multi.ThroughputKBps <= ch1Single.ThroughputKBps {
		t.Errorf("throughput: ch1 multi %.1f <= ch1 single %.1f KB/s",
			ch1Multi.ThroughputKBps, ch1Single.ThroughputKBps)
	}
	if ch1Multi.ThroughputKBps <= multiMulti.ThroughputKBps {
		t.Errorf("throughput: ch1 multi %.1f <= multi-channel multi %.1f KB/s",
			ch1Multi.ThroughputKBps, multiMulti.ThroughputKBps)
	}
	// Headline 2: multi-channel multi-AP has the best connectivity.
	if multiMulti.Connectivity <= ch1Multi.Connectivity {
		t.Errorf("connectivity: multi-channel %.2f <= single-channel %.2f",
			multiMulti.Connectivity, ch1Multi.Connectivity)
	}
	// Everything non-trivial actually happened.
	for key, r := range tr.Runs {
		if r.LinkUps == 0 {
			t.Errorf("%s: no links ever", key)
		}
	}
	// Derived tables/figures render.
	for _, s := range []string{Table2(tr).Render(), Table4(tr).Render(), Figure11(tr).Render(), Figure12(tr).Render(), Figure13(tr).Render(), APDensity(tr).Render()} {
		if len(s) == 0 {
			t.Fatal("empty render")
		}
	}
	f16 := Figure16(o, tr)
	f17 := Figure17(o, tr)
	if len(f16.Series) != 3 || len(f17.Series) != 3 {
		t.Fatal("figure 16/17 series missing")
	}
}

func TestAppendixAQuality(t *testing.T) {
	tbl := AppendixA(Options{Seed: 1, Scale: 0.2})
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		var brute, dp, greedy, util float64
		for i, dst := range []*float64{&brute, &dp, &greedy, &util} {
			if _, err := sscanF(r[1+i], dst); err != nil {
				t.Fatalf("row %v col %d: %v", r, 1+i, err)
			}
		}
		if brute != 1.0 {
			t.Fatalf("brute force not optimal: %v", brute)
		}
		if dp < 0.99 {
			t.Fatalf("dp quality %v, want ≈1", dp)
		}
		if greedy < 0.7 || util < 0.5 {
			t.Fatalf("heuristic qualities too low: greedy=%v utility=%v", greedy, util)
		}
	}
}

// joinStageDistribution sanity-checks the vehicular join harness directly.
func TestJoinRunProducesRecords(t *testing.T) {
	o := quick()
	joins := joinSweep(o, "joins", []run{joinCfg(o, 1, fractionSchedule(1.0, 0), ReducedTimersForTest(), 7)})[0]
	if len(joins) == 0 {
		t.Fatal("no join records")
	}
	complete := 0
	for _, j := range joins {
		if j.Stage == lmm.StageComplete {
			complete++
		}
	}
	if complete == 0 {
		t.Fatal("no completed joins on a dedicated channel")
	}
}
