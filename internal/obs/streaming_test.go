package obs

import (
	"strings"
	"testing"
)

// TestStreamingRecorderRetainsNothing: a streaming recorder delivers
// every event and closed span to its subscribers but keeps no timeline —
// that is what bounds memory at city-scale populations.
func TestStreamingRecorderRetainsNothing(t *testing.T) {
	rec := NewStreamingRecorder()
	var gotEv []Event
	var gotSp []Span
	rec.Subscribe(func(e Event) { gotEv = append(gotEv, e) })
	rec.SubscribeSpans(func(s Span) { gotSp = append(gotSp, s) })

	l := rec.Client(7)
	l.Emit(Event{At: 10, Kind: KindProbe})
	l.Emit(Event{At: 20, Kind: KindLinkUp})
	sp := l.StartSpan(5, "join")
	sp.SetBSSID("aa:bb")
	sp.EndStatus(25, "ok")
	open := l.StartSpan(30, "link")
	rec.CloseOpenSpans(40)

	if len(gotEv) != 2 || gotEv[0].Kind != KindProbe || gotEv[1].Kind != KindLinkUp {
		t.Fatalf("subscriber saw %v", gotEv)
	}
	if gotEv[0].Client != 7 || gotEv[0].Seq != 0 || gotEv[1].Seq != 1 {
		t.Fatalf("streaming events missing client/seq: %v", gotEv)
	}
	if len(gotSp) != 2 || gotSp[0].Name != "join" || gotSp[0].End != 25 ||
		gotSp[0].Status != "ok" || gotSp[1].Name != "link" || gotSp[1].End != 40 {
		t.Fatalf("span subscriber saw %v", gotSp)
	}
	if evs := rec.Events(); len(evs) != 0 {
		t.Fatalf("streaming recorder retained %d events", len(evs))
	}
	if sps := rec.Spans(); len(sps) != 0 {
		t.Fatalf("streaming recorder exported %d spans", len(sps))
	}
	if !rec.Summary().Empty() {
		t.Fatalf("streaming recorder has a summary")
	}
	open.End(50) // already closed by the sweep: must be a no-op
	if len(gotSp) != 2 {
		t.Fatalf("double close delivered twice")
	}
}

// TestStreamingRecorderChattyFlag: a streaming recorder's logs record
// no chatty kinds and a retaining recorder's logs record them all; a nil
// log records nothing.
func TestStreamingRecorderChattyFlag(t *testing.T) {
	streaming, retaining := NewStreamingRecorder(), NewRecorder()
	for _, id := range []int{0, 7, WorldClient} {
		if streaming.Client(id).ChattyFlag() {
			t.Errorf("streaming recorder: client %d's log records chatty kinds", id)
		}
		if !retaining.Client(id).ChattyFlag() {
			t.Errorf("retaining recorder: client %d's log records no chatty kinds", id)
		}
	}
	var nilRec *Recorder
	if nilRec.Client(0).ChattyFlag() {
		t.Error("nil log records chatty kinds")
	}
}

// TestStreamingSpanRecycling: closed span slots are reused, stale handles
// go inert, and IDs stay unique across reuse.
func TestStreamingSpanRecycling(t *testing.T) {
	rec := NewStreamingRecorder()
	l := rec.Client(1)

	a := l.StartSpan(0, "a")
	aid := a.SpanID()
	a.End(10)

	// The next span must reuse a's slot.
	b := l.StartSpan(20, "b")
	if len(l.spans) != 1 {
		t.Fatalf("slot not recycled: %d slots", len(l.spans))
	}
	if b.SpanID() == aid {
		t.Fatalf("span ID reused across recycling")
	}
	// The stale handle must not touch b's record.
	a.SetStatus("stale-write")
	a.SetBSSID("stale")
	a.End(99)
	if c := a.StartChild(30, "child-of-stale"); c != nil {
		t.Fatalf("stale handle spawned a child")
	}
	if sp := b.span(); sp.Status != "" || sp.BSSID != "" || sp.End != openEnd {
		t.Fatalf("stale handle corrupted recycled slot: %+v", *sp)
	}

	// Children of a live parent still link correctly after recycling.
	ch := b.StartChild(25, "child")
	if ch.span().Parent != b.SpanID() {
		t.Fatalf("child parent = %v, want %v", ch.span().Parent, b.SpanID())
	}
	ch.End(26)
	b.End(30)

	// A retaining recorder recycles slots the same way, and still keeps
	// every closed span.
	rr := NewRecorder()
	rl := rr.Client(1)
	x := rl.StartSpan(0, "x")
	x.End(1)
	rl.StartSpan(2, "y").End(3)
	if len(rl.spans) != 1 {
		t.Fatalf("retaining recorder did not recycle: %d slots", len(rl.spans))
	}
	if sps := rr.Spans(); len(sps) != 2 || sps[0].Name != "x" || sps[1].Name != "y" {
		t.Fatalf("retained spans = %+v", sps)
	}
}

// TestRenderPrometheusDeterministic pins /v1/metrics' exposition: names
// sanitized into the spider_ namespace, counters before gauges, each
// group sorted by name whatever the sample order, and two renders of the
// same samples byte-identical.
func TestRenderPrometheusDeterministic(t *testing.T) {
	samples := []Metric{
		{Name: "links.live", Gauge: true, Value: 2},
		{Name: "join.attempts", Value: 3},
		{Name: "ipam.pool.a-1.used", Gauge: true, Value: -4},
		{Name: "dhcp-nak", Value: 1},
	}
	want := strings.Join([]string{
		"# TYPE spider_dhcp_nak counter",
		"spider_dhcp_nak 1",
		"# TYPE spider_join_attempts counter",
		"spider_join_attempts 3",
		"# TYPE spider_ipam_pool_a_1_used gauge",
		"spider_ipam_pool_a_1_used -4",
		"# TYPE spider_links_live gauge",
		"spider_links_live 2",
		"",
	}, "\n")
	got := RenderPrometheus(samples)
	if got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
	if samples[0].Name != "links.live" {
		t.Fatalf("render reordered its input")
	}
	if again := RenderPrometheus(samples); again != got {
		t.Fatalf("two renders differ")
	}
}
