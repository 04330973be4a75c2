package core

import (
	"bytes"
	"testing"
	"time"

	"spider/internal/dot11"
	"spider/internal/sim"
	"spider/internal/telemetry"
)

// runWithTelemetry executes a 2-client corridor run with the streaming
// plane attached (no explicit recorder: Start must create the streaming
// one) and returns the results and the finished aggregator.
func runWithTelemetry(seed int64) ([]Result, *telemetry.Aggregator) {
	world, model := corridorWorld(seed)
	tel := telemetry.New(telemetry.Config{Seed: seed, KeepClients: 1, SLOs: telemetry.DefaultSLOs()})
	world.Telemetry = tel
	s := NewScenario(world)
	s.AddClient(ClientConfig{ID: 0, Preset: SingleChannelMultiAP, Mobility: model})
	s.AddClient(ClientConfig{ID: 1, Preset: SingleChannelMultiAP, Mobility: model,
		StartOffset: sim.Time(2 * time.Second)})
	return s.Run(), tel
}

// TestScenarioTelemetryRollups checks the end-to-end wiring: windows
// cover the run, goodput rolled up per window reconciles exactly with the
// clients' delivered bytes, RTT samples reach the sketch, and the probe
// populates channel and population fields.
func TestScenarioTelemetryRollups(t *testing.T) {
	results, tel := runWithTelemetry(42)
	wins := tel.Windows()
	if len(wins) == 0 {
		t.Fatal("no rollup windows closed")
	}
	dur := int64(results[0].Duration)
	lastEnd := wins[len(wins)-1].EndNS
	if lastEnd != dur {
		t.Fatalf("last window ends at %d, run ended at %d", lastEnd, dur)
	}
	var rolled, recorded int64
	sawRTT, sawJoin := false, false
	for _, w := range wins {
		rolled += w.GoodputBytes
		if w.RTTP50MS > 0 {
			sawRTT = true
		}
		if w.JoinOKs > 0 {
			sawJoin = true
		}
		if w.Clients != 2 {
			t.Fatalf("window %d reports %d clients, want 2", w.Index, w.Clients)
		}
		if len(w.Channels) == 0 {
			t.Fatalf("window %d has no channel rollups", w.Index)
		}
		for _, ch := range w.Channels {
			if ch.Channel != int(dot11.Channel1) {
				t.Fatalf("unexpected channel %d in rollup", ch.Channel)
			}
		}
	}
	for _, r := range results {
		recorded += r.BytesReceived
	}
	if rolled != recorded {
		t.Fatalf("rollup goodput %d != delivered bytes %d", rolled, recorded)
	}
	if recorded == 0 {
		t.Fatal("corridor run moved no data")
	}
	if !sawRTT {
		t.Fatal("no window carries RTT quantiles: sender OnRTT hook not wired")
	}
	if !sawJoin {
		t.Fatal("no window carries join completions")
	}
	fc := tel.FlightCounters()
	if fc.EventsAdmitted == 0 || fc.SpansAdmitted == 0 {
		t.Fatalf("flight recorder admitted nothing: %+v", fc)
	}
}

// TestTelemetryDoesNotPerturbRun: attaching the streaming plane must not
// change a single bit of the simulation outcome — aggregation observes
// the run, it does not participate in it.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	plain := func() []Result {
		world, model := corridorWorld(7)
		s := NewScenario(world)
		s.AddClient(ClientConfig{ID: 0, Preset: SingleChannelMultiAP, Mobility: model})
		s.AddClient(ClientConfig{ID: 1, Preset: SingleChannelMultiAP, Mobility: model,
			StartOffset: sim.Time(2 * time.Second)})
		return s.Run()
	}()
	with, _ := runWithTelemetry(7)
	if fingerprint(plain) != fingerprint(with) {
		t.Fatal("attaching telemetry changed the run's results")
	}
}

// TestTelemetryExportDeterminism: two identical runs export byte-identical
// rollup JSONL, flight events included.
func TestTelemetryExportDeterminism(t *testing.T) {
	export := func() []byte {
		_, tel := runWithTelemetry(42)
		var b bytes.Buffer
		if err := tel.WriteJSONL(&b, "det"); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(export(), export()) {
		t.Fatal("identical runs exported different rollups")
	}
}
