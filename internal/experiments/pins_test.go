package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/obs"
	"spider/internal/sim"
	"spider/internal/telemetry"
)

// The suites beside this file compare runs of one build with each other,
// so a refactor that changes every run the same way passes them all.
// These pins compare against fixed digests instead: each constant is the
// sha256 of an artifact as previously recorded, and an intended change of
// the artifact must update its constant in the same commit.

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestPinnedChaosTimeline pins the retained event and span timeline of
// the chaos scenario (seed 1, scale 0.05).
func TestPinnedChaosTimeline(t *testing.T) {
	world, client := ChaosScenario(Options{Seed: 1, Scale: 0.05})
	rec := obs.NewRecorder()
	world.Obs = rec
	core.Run(world, client)
	evs, spans := rec.Events(), rec.Spans()
	var ev, sp bytes.Buffer
	if err := obs.WriteJSONL(&ev, "", evs); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSpansJSONL(&sp, "", spans); err != nil {
		t.Fatal(err)
	}
	const (
		wantEvents = "d2f8972803061abe7d9b041b16ae71bbe03f87d6843e8d122476feb28289b407"
		wantSpans  = "42a8f934702da2cffda3b3ffc5c98e24e2a27a0a76b2c63a1a5645b985515e66"
	)
	if len(evs) != 362 || sha(ev.Bytes()) != wantEvents {
		t.Errorf("events: %d, sha256 %s; want 362, %s", len(evs), sha(ev.Bytes()), wantEvents)
	}
	if len(spans) != 65 || sha(sp.Bytes()) != wantSpans {
		t.Errorf("spans: %d, sha256 %s; want 65, %s", len(spans), sha(sp.Bytes()), wantSpans)
	}
}

// TestPinnedDenseTelemetry pins the telemetry-only dense rung (streaming
// recorder, chatty sampling): the rollup JSONL with its flight accounting,
// then the flight recorder's retained events and spans.
func TestPinnedDenseTelemetry(t *testing.T) {
	for _, tc := range []struct {
		clients int
		want    string
	}{
		{256, "04a1b1d4d2f3a23ea9b2d2fa958e6401cc1910eca852bb92f1175a4c305ea56f"},
		{512, "401147d697f41f08599da993f1ff2f6c36d704b91184f8b338235679c66948d8"},
	} {
		world, clients := PopulationDenseScenario(Options{Seed: 1, Scale: 0.05}, tc.clients)
		tel := telemetry.New(telemetry.Config{Seed: 1, SLOs: telemetry.DefaultSLOs()})
		world.Telemetry = tel
		core.RunPopulation(world, clients)
		var b bytes.Buffer
		if err := tel.WriteJSONL(&b, ""); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteJSONL(&b, "", tel.FlightEvents()); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteSpansJSONL(&b, "", tel.FlightSpans()); err != nil {
			t.Fatal(err)
		}
		if got := sha(b.Bytes()); got != tc.want {
			t.Errorf("n=%d: sha256 %s, want %s", tc.clients, got, tc.want)
		}
	}
}

// TestPinnedPopulationLadder pins every rung of the population ladder at
// seed 1, scale 0.05: the classic corridor at 1, 8 and 64 clients, the
// shared-IPAM plan at 32, the dense stagger at 256 and 1024, and the dense
// stagger with the telemetry plane attached at 512. Each digest covers the
// rung's whole core.PopulationResult, per-client results included.
func TestPinnedPopulationLadder(t *testing.T) {
	for _, tc := range []struct {
		clients   int
		scenario  func(Options, int) (core.WorldConfig, []core.ClientConfig)
		telemetry bool
		want      string
	}{
		{1, PopulationScenario, false, "3a082011f13ed40d9b4bbf6ae7fa5e08190473f2db56b3543123418681cac9ad"},
		{8, PopulationScenario, false, "f9041649594567ff232d2e301bb3b06863126cba20faf5820d150fe6ababda99"},
		{32, PopulationIPAMScenario, false, "c5e7f6645e9705f4958a872c264ca4518bea8ba5df800a0d9a339f3a84d12c33"},
		{64, PopulationScenario, false, "89b04d1777c70893ed295e9435ae0b530e60cb68aebf2abe6eb81b596ba73fb6"},
		{256, PopulationDenseScenario, false, "cbebfc4a5c75ff9157a18e6c288f3bce620b8569e84474955e621b23e8db0814"},
		{512, PopulationDenseScenario, true, "521b6faf20528cf4eca088b4371998c122d33f6e6c9a538f05e6b9b18784562d"},
		{1024, PopulationDenseScenario, false, "ef9a952945063139c35e0d01329b6fa34beedb7013ec82fc099a4b2c933aba0e"},
	} {
		world, clients := tc.scenario(Options{Seed: 1, Scale: 0.05}, tc.clients)
		if tc.telemetry {
			world.Telemetry = telemetry.New(telemetry.Config{Seed: 1, SLOs: telemetry.DefaultSLOs()})
		}
		p := core.RunPopulation(world, clients)
		if got := sha([]byte(fmt.Sprintf("%+v", p))); got != tc.want {
			t.Errorf("n=%d: aggregate %g KB/s, jain %g: sha256 %s, want %s",
				tc.clients, p.AggregateKBps, p.JainFairness, got, tc.want)
		}
	}
}

// TestPinnedHeldBytes pins the bytes a traced world's stores hold on the
// rush-hour plaza (seed 1, 60 vehicles over 60 sim-s, the +failover+gc
// arm, events, spans and telemetry on): the retaining recorder's record
// chunks and string table, and the telemetry plane's flight rings. Both
// figures are counted from the stores' own structures, so they move only
// when the recorded stream or the storage layout does, and a layout
// regression fails here before any benchmark sees it.
func TestPinnedHeldBytes(t *testing.T) {
	const n, d = 60, sim.Time(60 * time.Second)
	world := rushHourWorld(1, d, rushHourIPAM(n, true), true)
	rec := obs.NewRecorder()
	tel := telemetry.New(telemetry.Config{Seed: 1, SLOs: telemetry.DefaultSLOs()})
	world.Obs, world.Telemetry = rec, tel
	core.RunPopulation(world, rushHourClients(n, d))
	got := [4]int64{rec.Summary().Total(), int64(len(rec.Spans())), rec.HeldBytes(), tel.HeldBytes()}
	if want := [4]int64{8523, 2445, 654242, 106496}; got != want {
		t.Errorf("events, spans, recorder bytes, telemetry bytes = %v, want %v", got, want)
	}
}
