package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"spider/internal/core"
	"spider/internal/obs"
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
	cfg := ChaosScenario(Options{Seed: 1, Scale: 0.05})
	rec := obs.NewRecorder()
	cfg.Obs = rec
	core.Run(cfg)
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
