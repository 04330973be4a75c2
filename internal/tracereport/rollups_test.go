package tracereport

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"spider/internal/sim"
	"spider/internal/telemetry"
)

// rollupFixture runs a small aggregator by hand — two windows of joins,
// RTTs, and goodput — and exports it as JSONL.
func rollupFixture(t *testing.T, run string) []byte {
	t.Helper()
	a := telemetry.New(telemetry.Config{SLOs: telemetry.DefaultSLOs()})
	sec := sim.Time(time.Second)
	for c := 0; c < 3; c++ {
		a.AddGoodput(c, sim.Time(c+1)*100e6, 1000*(c+1))
		a.AddRTT(c, sim.Time(c+1)*150e6, sim.Time(20+c)*1e6)
	}
	a.Tick(sec)
	a.AddGoodput(0, sec+200e6, 5000)
	a.AddRTT(1, sec+300e6, 45*1e6)
	a.Tick(2 * sec)
	a.Finish(2 * sec)

	var b bytes.Buffer
	if err := a.WriteJSONL(&b, run); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestReadRollupsRoundTrip(t *testing.T) {
	raw := rollupFixture(t, "fixture")
	rf, err := ReadRollups(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Runs) != 1 || rf.Runs[0] != "fixture" {
		t.Fatalf("runs = %v", rf.Runs)
	}
	wins := rf.Windows["fixture"]
	if len(wins) != 2 {
		t.Fatalf("got %d windows, want 2", len(wins))
	}
	if wins[0].GoodputBytes != 1000+2000+3000 {
		t.Fatalf("window 0 goodput %d", wins[0].GoodputBytes)
	}
	if wins[1].GoodputBytes != 5000 {
		t.Fatalf("window 1 goodput %d", wins[1].GoodputBytes)
	}
}

func TestReadRollupsRejectsCorruption(t *testing.T) {
	if _, err := ReadRollups(strings.NewReader("{\"run\":\"a\",\"window\"")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	// A syntactically valid line that holds no window is corruption too,
	// not a silent no-op.
	if _, err := ReadRollups(strings.NewReader(`{"run":"a"}`)); err == nil {
		t.Fatal("empty rollup line accepted")
	}
}

func TestRollupReportRenders(t *testing.T) {
	raw := rollupFixture(t, "fixture")
	rf, err := ReadRollups(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rep := rf.RollupReport("fixture")
	for _, want := range []string{
		"run: fixture  windows: 2",
		"== per-window rollups ==",
		"== run totals ==",
		"goodput: 11000 B",
		"== SLO violations ==",
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	// The merged RTT quantile must sit inside the observed range
	// (20..45 ms) after sketch rounding.
	var p50 float64
	for _, line := range strings.Split(rep, "\n") {
		if rest, ok := strings.CutPrefix(line, "rtt p50/p95 ms:"); ok {
			v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			p50 = v
		}
	}
	if p50 < 15 || p50 > 55 {
		t.Fatalf("merged rtt p50 %.1f ms outside plausible range", p50)
	}

	// Determinism: the report is a pure function of the bytes.
	rf2, err := ReadRollups(bytes.NewReader(rollupFixture(t, "fixture")))
	if err != nil {
		t.Fatal(err)
	}
	if rep2 := rf2.RollupReport("fixture"); rep2 != rep {
		t.Fatal("report not byte-stable across identical inputs")
	}
}
