package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spider/internal/chaos"
	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/obs"
)

// refuseIntent checks that Accept rejects in with an error, without a
// panic, and journals nothing: no sequence number is spent, nothing is
// pending, and a restart replays no intent.
func refuseIntent(t *testing.T, in Intent) {
	t.Helper()
	dir := t.TempDir()
	srv, err := Open(dir, corridorWorld())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Accept(in, 0); err == nil {
		t.Fatal("intent accepted")
	}
	if srv.NextSeq() != 0 || srv.Pending() != 0 {
		t.Fatalf("rejected intent spent seq %d, left %d pending", srv.NextSeq(), srv.Pending())
	}
	srv.Close()
	if fi, err := os.Stat(filepath.Join(dir, walFile)); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL after a rejected intent: %v, err %v", fi, err)
	}
}

// addClient is an add-client intent for client 7 with the given tweak.
func addClient(tweak func(*ClientSpec)) Intent {
	c := &ClientSpec{ID: 7, Route: RouteSpec{Points: []geo.Point{{X: 100, Y: 5}}}}
	tweak(c)
	return Intent{Kind: IntentAddClient, Client: c}
}

func TestIntentZeroLengthRouteRefused(t *testing.T) {
	refuseIntent(t, addClient(func(c *ClientSpec) {
		c.Route = RouteSpec{Points: []geo.Point{{X: 3, Y: 4}, {X: 3, Y: 4}}, SpeedMPS: 10}
	}))
}

func TestIntentInvalidPrimaryChannelRefused(t *testing.T) {
	refuseIntent(t, addClient(func(c *ClientSpec) { c.PrimaryChannel = 99 }))
}

func TestIntentInvalidChannelListRefused(t *testing.T) {
	refuseIntent(t, addClient(func(c *ClientSpec) {
		c.Preset = "multi-channel/multi-AP"
		c.Channels = []int{0}
	}))
}

// refuseSpec checks that Open rejects spec with an error, without a
// panic, and leaves the state directory empty.
func refuseSpec(t *testing.T, tweak func(*WorldSpec)) {
	t.Helper()
	spec := corridorWorld()
	tweak(spec)
	if err := spec.Validate(); err == nil {
		t.Fatal("Validate accepted the spec")
	}
	dir := t.TempDir()
	if srv, err := Open(dir, spec); err == nil {
		srv.Close()
		t.Fatal("Open accepted the spec")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("refused spec left %d files in the state directory", len(ents))
	}
}

func TestSpecSiteOnChannelZeroRefused(t *testing.T) {
	refuseSpec(t, func(w *WorldSpec) { w.Sites[1].Channel = 0 })
}

func TestSpecSiteOnChannel99Refused(t *testing.T) {
	refuseSpec(t, func(w *WorldSpec) { w.Sites[2].Channel = 99 })
}

func TestSpecZeroLengthRouteRefused(t *testing.T) {
	refuseSpec(t, func(w *WorldSpec) {
		w.Clients[0].Route = RouteSpec{Points: []geo.Point{{X: 1, Y: 1}, {X: 1, Y: 1}}, SpeedMPS: 5, Loop: true}
	})
}

func TestSpecDuplicateClientIDsRefused(t *testing.T) {
	refuseSpec(t, func(w *WorldSpec) { w.Clients = append(w.Clients, w.Clients[0]) })
}

func TestSpecNegativeClientIDRefused(t *testing.T) {
	refuseSpec(t, func(w *WorldSpec) { w.Clients[0].ID = -1 })
}

// TestInvalidScheduleInOldWALReplaysAsRejection covers a log written
// before add-client intents were checked for their channels: the intent
// is in the WAL, so replay applies it, and it must be rejected the same
// way on every restart instead of panicking the daemon.
func TestInvalidScheduleInOldWALReplaysAsRejection(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(dir, corridorWorld())
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	wal, _, _, err := OpenWAL(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	in := addClient(func(c *ClientSpec) { c.PrimaryChannel = 99 })
	in.ApplyAtNS = int64(2 * time.Second)
	if err := wal.Append(in); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	var notes []string
	for i := 0; i < 2; i++ {
		srv, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv.Advance(3 * time.Second)
		if srv.Applied() != 1 || srv.Scenario().ClientByID(7) != nil {
			t.Fatalf("restart %d: applied %d, client 7 present %v", i, srv.Applied(), srv.Scenario().ClientByID(7) != nil)
		}
		for _, ev := range srv.Lifecycle().Events() {
			if ev.Kind == obs.KindServeIntent {
				notes = append(notes, ev.Note)
			}
		}
		srv.Close()
	}
	if len(notes) != 2 || notes[0] != notes[1] || !strings.HasPrefix(notes[0], "rejected:") {
		t.Fatalf("replayed intent notes %q, want one identical rejection per restart", notes)
	}
}

// TestChannelsValidatedAtEveryLayer: the core refuses the schedule too,
// so a client config that reaches AddClientNow with a bad channel is an
// error, not a panic when its driver is built.
func TestChannelsValidatedAtEveryLayer(t *testing.T) {
	srv, err := Open(t.TempDir(), corridorWorld())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cc, err := (&ClientSpec{ID: 8, Route: RouteSpec{Points: []geo.Point{{X: 100}}}}).ClientConfig()
	if err != nil {
		t.Fatal(err)
	}
	cc.PrimaryChannel = dot11.Channel(99)
	if err := srv.Scenario().AddClientNow(cc); err == nil {
		t.Fatal("core accepted a client scheduled on channel 99")
	}
	if srv.Scenario().ClientByID(8) != nil {
		t.Fatal("refused client was registered")
	}
	srv.Advance(time.Second)
}

// A positive period below one 802.11 time unit is refused wherever a spec
// or an intent can set one: the error names the field, nothing panics,
// and nothing is written or journaled.

func TestSpecBeaconIntervalBelowOneTURefused(t *testing.T) {
	refuseSpec(t, func(w *WorldSpec) { w.AP.BeaconInterval = 100 * time.Microsecond })
}

func TestSpecTelemetryWindowBelowOneTURefused(t *testing.T) {
	refuseSpec(t, func(w *WorldSpec) { w.Telemetry = &TelemetrySpec{WindowNS: 1} })
}

func TestSpecClientSlotBelowOneTURefused(t *testing.T) {
	refuseSpec(t, func(w *WorldSpec) { w.Clients[0].SlotNS = 1 })
}

func TestIntentClientSlotBelowOneTURefused(t *testing.T) {
	refuseIntent(t, addClient(func(c *ClientSpec) {
		c.Preset = "multi-channel/multi-AP"
		c.SlotNS = 1
	}))
}

func TestIntentChaosMeanBelowOneTURefused(t *testing.T) {
	refuseIntent(t, Intent{Kind: IntentInjectChaos, Chaos: &chaos.Plan{Procs: []chaos.Process{
		{Kind: chaos.NoiseBurst, Mean: time.Microsecond, Duration: time.Second, Channel: dot11.Channel1, Loss: 0.5},
	}}})
}

// TestPeriodFloorNamesTheFieldAndKeepsZero: each refusal names its field,
// one time unit itself is accepted, and zero keeps its default meaning.
func TestPeriodFloorNamesTheFieldAndKeepsZero(t *testing.T) {
	spec := corridorWorld()
	spec.AP.BeaconInterval = minPeriod - 1
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "ap.BeaconInterval") {
		t.Fatalf("beacon refusal %v does not name ap.BeaconInterval", err)
	}
	spec.AP.BeaconInterval = minPeriod
	spec.Telemetry = &TelemetrySpec{WindowNS: int64(minPeriod)}
	spec.Clients[0].SlotNS = int64(minPeriod)
	if err := spec.Validate(); err != nil {
		t.Fatalf("periods of one time unit refused: %v", err)
	}
	spec.AP.BeaconInterval, spec.Telemetry.WindowNS, spec.Clients[0].SlotNS = 0, 0, 0
	if err := spec.Validate(); err != nil {
		t.Fatalf("zero periods refused: %v", err)
	}
	for field, err := range map[string]error{
		"telemetry.window_ns": (&WorldSpec{Sites: spec.Sites, Telemetry: &TelemetrySpec{WindowNS: 1}}).Validate(),
		"slot_ns":             addClient(func(c *ClientSpec) { c.SlotNS = 1 }).validate(),
		"procs[0]: Mean": Intent{Kind: IntentInjectChaos, Chaos: &chaos.Plan{Procs: []chaos.Process{
			{Kind: chaos.DHCPSilence, Mean: 1, Duration: time.Second}}}}.validate(),
	} {
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("refusal %v does not name %s", err, field)
		}
	}
}

// specWithKey is the corridor world's JSON with one more top-level member.
func specWithKey(t *testing.T, member string) []byte {
	t.Helper()
	b, err := json.Marshal(corridorWorld())
	if err != nil {
		t.Fatal(err)
	}
	return append(b[:len(b)-1], ","+member+"}"...)
}

// TestSpecUnknownKeyRefused: a spec carrying a key this build does not
// declare — here the telemetry flight recorder's retired setting — is
// refused with an error naming the key, both where spider-serve reads
// -config and where Open reads a state directory's config.json.
func TestSpecUnknownKeyRefused(t *testing.T) {
	b := specWithKey(t, `"telemetry":{"flight_events":100}`)
	var spec WorldSpec
	if err := DecodeStrict(bytes.NewReader(b), &spec); err == nil || !strings.Contains(err.Error(), "flight_events") {
		t.Fatalf("-config with a retired key: %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, configFile), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); err == nil || !strings.Contains(err.Error(), "flight_events") {
		t.Fatalf("config.json with a retired key: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, walFile)); !os.IsNotExist(err) {
		t.Fatalf("refused config.json still opened a WAL: %v", err)
	}

	// Without the key the same document decodes; trailing white space is
	// fine, and a second document is not.
	b = specWithKey(t, `"telemetry":{"window_ns":1000000000}`)
	if err := DecodeStrict(bytes.NewReader(append(b, " \n"...)), &spec); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
	if err := DecodeStrict(bytes.NewReader(append(b, b...)), &spec); err == nil {
		t.Fatal("two concatenated specs accepted")
	}
}

// TestExampleSpecBoots: the shipped example spec decodes strictly and
// opens.
func TestExampleSpecBoots(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "examples", "serve", "corridor.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spec WorldSpec
	if err := DecodeStrict(f, &spec); err != nil {
		t.Fatal(err)
	}
	srv, err := Open(t.TempDir(), &spec)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
}
