package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestNilSafety: every disabled entry point must be a no-op, because the
// whole stack calls through these unconditionally.
func TestNilSafety(t *testing.T) {
	var rec *Recorder
	log := rec.Client(3)
	if log != nil {
		t.Fatalf("nil recorder must hand out nil logs")
	}
	log.Emit(Event{Kind: KindProbe}) // must not panic
	if log.Enabled() {
		t.Fatalf("nil log reports enabled")
	}
	if evs := rec.Events(); evs != nil {
		t.Fatalf("nil recorder has events: %v", evs)
	}
	if !rec.Summary().Empty() {
		t.Fatalf("nil recorder summary not empty")
	}
}

// TestEventOrdering: Events must come back ordered by (sim-time, client,
// seq) regardless of emission interleaving across client logs.
func TestEventOrdering(t *testing.T) {
	rec := NewRecorder()
	rec.Client(2).Emit(Event{At: 30, Kind: KindProbe})
	rec.Client(0).Emit(Event{At: 10, Kind: KindProbe})
	rec.Client(1).Emit(Event{At: 10, Kind: KindAuth})
	rec.Client(0).Emit(Event{At: 10, Kind: KindAssoc})
	rec.World().Emit(Event{At: 20, Kind: KindFaultBegin})

	evs := rec.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if a.At > b.At || (a.At == b.At && a.Client > b.Client) ||
			(a.At == b.At && a.Client == b.Client && a.Seq >= b.Seq) {
			t.Fatalf("events out of order at %d: %+v then %+v", i, a, b)
		}
	}
	// Same (time, client): emission order must be preserved via Seq.
	if evs[0].Kind != KindProbe || evs[1].Kind != KindAssoc {
		t.Fatalf("client-0 emission order not preserved: %+v %+v", evs[0], evs[1])
	}
	if evs[3].Client != WorldClient {
		t.Fatalf("world event not at expected slot: %+v", evs[3])
	}
}

// TestJSONLSchemaRoundTrip: every exported line must decode back into an
// Event with a known kind — the schema validity check the acceptance
// criteria call for.
func TestJSONLSchemaRoundTrip(t *testing.T) {
	rec := NewRecorder()
	rec.Client(0).Emit(Event{At: 5, Kind: KindChannelSwitch, Channel: 6})
	rec.Client(0).Emit(Event{At: 9, Kind: KindDHCPAck, BSSID: "02:00:00:10:00:01", Value: 42})

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, "run#0", rec.Events()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for _, line := range lines {
		var got struct {
			Run string `json:"run"`
			Event
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if got.Run != "run#0" {
			t.Fatalf("line %q: missing run label", line)
		}
	}
	// Unknown kinds must fail decoding (schema is closed).
	var k Kind
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &k); err == nil {
		t.Fatalf("unknown kind decoded silently")
	}
}

// TestSummaryMerge: summary addition must commute.
func TestSummaryMerge(t *testing.T) {
	var a, b Summary
	a.Counts[KindProbe] = 3
	a.Counts[KindLinkUp] = 1
	b.Counts[KindProbe] = 2
	b.Counts[KindFaultBegin] = 5

	ab, ba := a, b
	ab.Add(b)
	ba.Add(a)
	if ab != ba {
		t.Fatalf("summary merge not commutative: %v vs %v", ab, ba)
	}
	if ab.Total() != 11 {
		t.Fatalf("total = %d, want 11", ab.Total())
	}
	if !strings.Contains(ab.String(), "probe=5") {
		t.Fatalf("summary string %q missing probe=5", ab.String())
	}
}

// TestRegistrySnapshotDeterministic: a metric snapshot renders sorted by
// (type, name), counters before gauges, whatever order its samples
// arrive in.
func TestRegistrySnapshotDeterministic(t *testing.T) {
	snap := []Metric{
		{Name: "z", Value: 2},
		{Name: "a", Value: 1},
		{Name: "m", Gauge: true, Value: -4},
	}
	want := RenderPrometheus(snap)
	wantOrder := []string{"spider_a 1", "spider_z 2", "spider_m -4"}
	var samples []string
	for _, line := range strings.Split(strings.TrimSuffix(want, "\n"), "\n") {
		if !strings.HasPrefix(line, "# ") {
			samples = append(samples, line)
		}
	}
	if len(samples) != len(wantOrder) {
		t.Fatalf("got %d samples, want %d:\n%s", len(samples), len(wantOrder), want)
	}
	for i, s := range samples {
		if s != wantOrder[i] {
			t.Fatalf("sample[%d] = %q, want %q", i, s, wantOrder[i])
		}
	}
	perms := [][3]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		in := []Metric{snap[p[0]], snap[p[1]], snap[p[2]]}
		if got := RenderPrometheus(in); got != want {
			t.Fatalf("order %v renders\n%s\nwant\n%s", p, got, want)
		}
	}
}

// TestManualClockDeterministic: two identically used manual clocks read
// identical sequences — the property the wall-clock byte-identity tests
// lean on.
func TestManualClockDeterministic(t *testing.T) {
	run := func() []time.Duration {
		c := NewManual(time.Millisecond)
		var out []time.Duration
		for i := 0; i < 3; i++ {
			start := c.Now()
			out = append(out, c.Since(start))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("manual clock diverged at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != time.Millisecond {
			t.Fatalf("step = %v, want 1ms", a[i])
		}
	}
}

func TestSubscribeStreamsEveryEmit(t *testing.T) {
	r := NewRecorder()
	var got []Event
	r.Subscribe(func(e Event) { got = append(got, e) })
	r.Client(0).Emit(Event{At: 1, Kind: KindLinkUp})
	r.World().Emit(Event{At: 2, Kind: KindServeIntent, Note: "add-client"})
	if len(got) != 2 {
		t.Fatalf("subscriber saw %d events, want 2", len(got))
	}
	if got[0].Client != 0 || got[0].Seq != 0 {
		t.Fatalf("first streamed event missing log-filled fields: %+v", got[0])
	}
	if got[1].Client != WorldClient || got[1].Kind != KindServeIntent {
		t.Fatalf("second streamed event = %+v", got[1])
	}
	// The log keeps recording identically with subscribers attached.
	if total := r.Summary().Total(); total != 2 {
		t.Fatalf("recorded %d events, want 2", total)
	}
	var nilRec *Recorder
	nilRec.Subscribe(func(Event) {}) // must not panic
}

func TestServeKindNamesRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindServeIntent, KindServeCheckpoint, KindServeRestore,
		KindServeStall, KindServeWALTruncated} {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("kind %v did not round-trip: %v", k, err)
		}
		if back != k {
			t.Fatalf("kind %v round-tripped to %v", k, back)
		}
	}
}
