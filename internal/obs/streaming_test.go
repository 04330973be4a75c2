package obs

import (
	"strings"
	"testing"
)

// TestStreamingRecorderRetainsNothing: a streaming recorder delivers
// every event to its subscribers but keeps no timeline and opens no span —
// that is what bounds memory at city-scale populations.
func TestStreamingRecorderRetainsNothing(t *testing.T) {
	rec := NewStreamingRecorder()
	var gotEv []Event
	rec.Subscribe(func(e Event) { gotEv = append(gotEv, e) })

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
	if sp != nil || open != nil || len(l.open) != 0 {
		t.Fatalf("streaming recorder opened spans: %v %v, %d open", sp, open, len(l.open))
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
	open.End(50) // the nil handle: must be a no-op
	if sps := rec.Spans(); len(sps) != 0 || rec.HeldBytes() != 0 {
		t.Fatalf("ending a nil handle retained %d spans", len(sps))
	}
}

// TestStreamingRecorderRetains: a streaming recorder's logs retain
// nothing, so they record no chatty kinds, and a retaining recorder's
// logs record them all; a nil log records nothing.
func TestStreamingRecorderRetains(t *testing.T) {
	streaming, retaining := NewStreamingRecorder(), NewRecorder()
	for _, id := range []int{0, 7, WorldClient} {
		if streaming.Client(id).Retains() {
			t.Errorf("streaming recorder: client %d's log records chatty kinds", id)
		}
		if !retaining.Client(id).Retains() {
			t.Errorf("retaining recorder: client %d's log records no chatty kinds", id)
		}
	}
	var nilRec *Recorder
	if nilRec.Client(0).Retains() {
		t.Error("nil log records chatty kinds")
	}
}

// TestStreamingRecorderOpensNoSpans: a streaming recorder's logs hand
// out the nil handle, so a span's whole start, annotate and end cycle
// allocates nothing there.
func TestStreamingRecorderOpensNoSpans(t *testing.T) {
	rec := NewStreamingRecorder()
	for _, id := range []int{0, 7, WorldClient} {
		if sp := rec.Client(id).StartSpan(1, "join"); sp != nil {
			t.Errorf("client %d: streaming log opened span %+v", id, sp.sp)
		}
	}
	l := rec.Client(7)
	allocs := testing.AllocsPerRun(100, func() {
		sp := l.StartSpan(1, "join")
		sp.SetBSSID("02:00:00:00:00:01")
		sp.End(2)
	})
	if allocs != 0 {
		t.Errorf("span cycle on a streaming log: %v allocs, want 0", allocs)
	}
}

// TestStreamingSpanRecycling: a closed handle is inert — its setters,
// End and StartChild touch neither its retained span nor any later one —
// and span IDs stay unique on a retaining recorder.
func TestStreamingSpanRecycling(t *testing.T) {
	rec := NewRecorder()
	l := rec.Client(1)

	a := l.StartSpan(0, "a")
	aid := a.sp.ID
	a.End(10)

	b := l.StartSpan(20, "b")
	if b.sp.ID == aid {
		t.Fatalf("span ID reused")
	}
	// The closed handle must not touch a's retained span or b.
	a.SetStatus("stale-write")
	a.SetBSSID("stale")
	a.End(99)
	if c := a.StartChild(30, "child-of-stale"); c != nil {
		t.Fatalf("closed handle spawned a child")
	}
	if b.sp.Status != "" || b.sp.BSSID != "" || b.sp.End != openEnd {
		t.Fatalf("closed handle corrupted the open span: %+v", b.sp)
	}
	if len(l.open) != 1 || l.open[0] != b {
		t.Fatalf("open list holds %d spans, want only b", len(l.open))
	}

	// Children of a live parent link to it.
	ch := b.StartChild(25, "child")
	if ch.sp.Parent != b.sp.ID {
		t.Fatalf("child parent = %v, want %v", ch.sp.Parent, b.sp.ID)
	}
	ch.End(26)
	b.End(30)
	if len(l.open) != 0 {
		t.Fatalf("%d spans still open after every close", len(l.open))
	}

	// Every closed span is retained once, as it was when it closed.
	sps := rec.Spans()
	if len(sps) != 3 || sps[0].Name != "a" || sps[1].Name != "b" || sps[2].Name != "child" {
		t.Fatalf("retained spans = %+v", sps)
	}
	if sps[0].End != 10 || sps[0].Status != "" || sps[0].BSSID != "" {
		t.Fatalf("closed handle rewrote its retained span: %+v", sps[0])
	}
	seen := map[SpanID]bool{}
	for _, sp := range sps {
		if seen[sp.ID] {
			t.Fatalf("span ID %#x retained twice", sp.ID)
		}
		seen[sp.ID] = true
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
