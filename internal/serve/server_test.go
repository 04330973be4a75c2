package serve

import (
	"bytes"
	"testing"
	"time"

	"spider/internal/chaos"
	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/mobility"
	"spider/internal/obs"
	"spider/internal/sim"
)

// corridorWorld is the shared test world: three open APs along a road,
// one declared client looping past them.
func corridorWorld() *WorldSpec {
	return &WorldSpec{
		Seed:      42,
		HorizonNS: int64(2 * time.Minute),
		Sites: []mobility.APSite{
			{Pos: geo.Point{X: 150, Y: 0}, Channel: dot11.Channel1, SSID: "corridor-a", Open: true, BackhaulBps: 2e6},
			{Pos: geo.Point{X: 350, Y: 0}, Channel: dot11.Channel6, SSID: "corridor-b", Open: true, BackhaulBps: 2e6},
			{Pos: geo.Point{X: 550, Y: 0}, Channel: dot11.Channel11, SSID: "corridor-c", Open: true, BackhaulBps: 2e6},
		},
		Clients: []ClientSpec{{
			ID:     0,
			Preset: "multi-channel/multi-AP",
			Route: RouteSpec{
				Points:   []geo.Point{{X: 0, Y: 0}, {X: 800, Y: 0}},
				SpeedMPS: 10,
				Loop:     true,
			},
		}},
	}
}

// testScript is the canonical intent sequence the determinism tests
// drive: a mid-run client, a chaos plan, and flow toggles, each at a
// fixed virtual barrier.
type scriptStep struct {
	at     sim.Time
	intent Intent
	after  sim.Time
}

func testScript() []scriptStep {
	staticRoute := RouteSpec{Points: []geo.Point{{X: 350, Y: 5}}}
	return []scriptStep{
		{at: 10 * time.Second, intent: Intent{
			Kind:   IntentAddClient,
			Client: &ClientSpec{ID: 9, Preset: "single-channel/multi-AP", Route: staticRoute},
		}},
		{at: 25 * time.Second, intent: Intent{
			Kind: IntentInjectChaos,
			Chaos: &chaos.Plan{Name: "mid-run", Events: []chaos.Event{
				{At: sim.Time(30 * time.Second), Kind: chaos.APCrash, AP: 1, Duration: 10 * time.Second},
			}},
		}},
		{at: 40 * time.Second, intent: Intent{
			Kind: IntentStopFlow, TargetClient: 0,
		}, after: 2 * time.Second},
		{at: 55 * time.Second, intent: Intent{
			Kind: IntentStartFlow, TargetClient: 9, FlowBytes: 64 << 10,
		}},
	}
}

// driveScript advances srv through the script with the given quantum,
// accepting each intent once the clock reaches its barrier, then
// advances to the end time.
func driveScript(t *testing.T, srv *Server, script []scriptStep, quantum, until sim.Time) {
	t.Helper()
	next := 0
	for srv.Now() < until {
		for next < len(script) && srv.Now() >= script[next].at {
			if _, err := srv.Accept(script[next].intent, script[next].after); err != nil {
				t.Fatalf("accept step %d: %v", next, err)
			}
			next++
		}
		// Stop the quantum at the next scripted accept time, so the
		// accept barriers — and therefore the recorded ApplyAt times —
		// are identical whatever quantum drives the run.
		target := srv.Now() + quantum
		if next < len(script) && script[next].at < target {
			target = script[next].at
		}
		if target > until {
			target = until
		}
		srv.Advance(target)
	}
	if next != len(script) {
		t.Fatalf("only %d/%d script steps accepted before until", next, len(script))
	}
}

// streams renders the deterministic artifacts.
func streams(t *testing.T, rec *obs.Recorder) ([]byte, []byte) {
	t.Helper()
	var evs, spans bytes.Buffer
	if err := obs.WriteJSONL(&evs, "", rec.Events()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSpansJSONL(&spans, "", rec.Spans()); err != nil {
		t.Fatal(err)
	}
	return evs.Bytes(), spans.Bytes()
}

// rollupArtifacts renders the telemetry plane's deterministic export: the
// rollup JSONL.
func rollupArtifacts(t *testing.T, srv *Server) []byte {
	t.Helper()
	tel := srv.Telemetry()
	if tel == nil {
		t.Fatal("serve world has no telemetry plane")
	}
	var b bytes.Buffer
	if err := tel.WriteJSONL(&b, ""); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

const testUntil = sim.Time(90 * time.Second)

// referenceRun produces the uninterrupted streams every crash-recovery
// comparison is judged against: obs events, spans, and the telemetry
// rollup export.
func referenceRun(t *testing.T) ([]byte, []byte, []byte) {
	t.Helper()
	srv, err := Open(t.TempDir(), corridorWorld())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	driveScript(t, srv, testScript(), sim.Time(time.Second), testUntil)
	evs, spans := streams(t, srv.rec)
	return evs, spans, rollupArtifacts(t, srv)
}

func TestOpenFreshAndPersistedConfig(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("fresh dir without spec should fail")
	}
	srv, err := Open(dir, corridorWorld())
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// Reopen without a spec: config.json wins.
	srv2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Hash() != srv.Hash() {
		t.Fatalf("reopened hash %s != %s", srv2.Hash(), srv.Hash())
	}
	srv2.Close()

	// Reopen with a different spec: refused.
	other := corridorWorld()
	other.Seed = 43
	if _, err := Open(dir, other); err == nil {
		t.Fatal("conflicting spec silently accepted")
	}
}

func TestRestoreReplaysByteIdentically(t *testing.T) {
	refEvs, refSpans, refRoll := referenceRun(t)

	// Live run: drive half the script, checkpoint, drop everything
	// without closing (crash), reopen, finish the script.
	dir := t.TempDir()
	srv, err := Open(dir, corridorWorld())
	if err != nil {
		t.Fatal(err)
	}
	script := testScript()
	driveScript(t, srv, script[:2], sim.Time(700*time.Millisecond), 30*time.Second)
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no artifact flush.

	resumed, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Restored() < 30*time.Second {
		t.Fatalf("restored clock %s, want >= 30s", resumed.Restored())
	}
	if resumed.Applied() != 2 {
		t.Fatalf("replayed %d intents, want 2", resumed.Applied())
	}
	// Continue the remaining script with a different quantum — barriers
	// must be invisible.
	driveScript(t, resumed, script[2:], sim.Time(1300*time.Millisecond), testUntil)
	gotEvs, gotSpans := streams(t, resumed.rec)
	if !bytes.Equal(refEvs, gotEvs) {
		t.Fatalf("resumed event stream differs: %d vs %d bytes", len(gotEvs), len(refEvs))
	}
	if !bytes.Equal(refSpans, gotSpans) {
		t.Fatalf("resumed span stream differs: %d vs %d bytes", len(gotSpans), len(refSpans))
	}
	if gotRoll := rollupArtifacts(t, resumed); !bytes.Equal(refRoll, gotRoll) {
		t.Fatalf("resumed rollup export differs: %d vs %d bytes", len(gotRoll), len(refRoll))
	}
}

func TestSnapshotHashMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(dir, corridorWorld())
	if err != nil {
		t.Fatal(err)
	}
	srv.Advance(5 * time.Second)
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// Corrupt the persisted config so its hash changes: the snapshot
	// must now be refused rather than replayed into the wrong world.
	other := corridorWorld()
	other.Seed = 99
	if err := saveConfig(dir, other); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("hash-mismatched snapshot silently accepted")
	}
}

func TestRejectedIntentIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(dir, corridorWorld())
	if err != nil {
		t.Fatal(err)
	}
	srv.Advance(time.Second)
	// Target client 55 never exists: accepted (payload is well-formed),
	// rejected at apply, and the rejection replays identically.
	if _, err := srv.Accept(Intent{Kind: IntentStartFlow, TargetClient: 55}, 0); err != nil {
		t.Fatal(err)
	}
	srv.Advance(3 * time.Second)
	if srv.Applied() != 1 {
		t.Fatalf("applied = %d, want 1 (rejected still counts)", srv.Applied())
	}
	evs, _ := streams(t, srv.rec)
	// Crash + resume: same stream.
	resumed, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	resumed.Advance(3 * time.Second)
	evs2, _ := streams(t, resumed.rec)
	if !bytes.Equal(evs, evs2) {
		t.Fatal("rejected intent replayed differently")
	}
	found := false
	for _, ev := range resumed.life.Events() {
		if ev.Kind == obs.KindServeIntent && len(ev.Note) > 9 && ev.Note[:9] == "rejected:" {
			found = true
		}
	}
	if !found {
		t.Fatal("no rejected-intent lifecycle event recorded")
	}
	srv.Close()
}

func TestAcceptValidation(t *testing.T) {
	srv, err := Open(t.TempDir(), corridorWorld())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cases := []Intent{
		{Kind: "no-such-kind"},
		{Kind: IntentAddClient},                                  // missing spec
		{Kind: IntentAddClient, Client: &ClientSpec{ID: 1}},      // no route
		{Kind: IntentInjectChaos},                                // missing plan
		{Kind: IntentInjectChaos, Chaos: &chaos.Plan{Name: "e"}}, // empty plan
		{Kind: IntentStartFlow, TargetClient: -4},
	}
	for i, in := range cases {
		if _, err := srv.Accept(in, 0); err == nil {
			t.Fatalf("case %d (%s) accepted", i, in.Kind)
		}
	}
	if srv.NextSeq() != 0 || srv.Pending() != 0 {
		t.Fatal("rejected intents consumed sequence numbers")
	}
}
