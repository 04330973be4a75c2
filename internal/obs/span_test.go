package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestSpanNilSafety: the disabled span path must be a no-op end to end —
// every instrumentation site calls through unconditionally.
func TestSpanNilSafety(t *testing.T) {
	var rec *Recorder
	log := rec.Client(1)
	s := log.StartSpan(10, "join")
	if s != nil {
		t.Fatalf("nil log must hand out nil spans")
	}
	// None of these may panic, and the child of nil is nil.
	s.SetBSSID("x")
	s.SetChannel(6)
	s.SetStatus("ok")
	s.End(20)
	s.EndStatus(30, "late")
	if c := s.StartChild(15, "auth"); c != nil {
		t.Fatalf("child of nil span must be nil")
	}
	rec.CloseOpenSpans(99)
	if sp := rec.Spans(); sp != nil {
		t.Fatalf("nil recorder has spans: %v", sp)
	}
}

// TestSpanIDDerivation: IDs must be a pure function of (client, seq),
// never of allocation interleaving across clients.
func TestSpanIDDerivation(t *testing.T) {
	rec := NewRecorder()
	a := rec.Client(0).StartSpan(1, "join")
	b := rec.Client(7).StartSpan(1, "join")
	a2 := rec.Client(0).StartSpan(2, "join")
	w := rec.World().StartSpan(3, "fault")

	if got, want := a.sp.ID, MakeSpanID(0, 1); got != want {
		t.Errorf("client 0 first span ID = %#x, want %#x", got, want)
	}
	if got, want := a2.sp.ID, MakeSpanID(0, 2); got != want {
		t.Errorf("client 0 second span ID = %#x, want %#x", got, want)
	}
	if got, want := b.sp.ID, MakeSpanID(7, 1); got != want {
		t.Errorf("client 7 first span ID = %#x, want %#x", got, want)
	}
	if got, want := w.sp.ID, MakeSpanID(WorldClient, 1); got != want {
		t.Errorf("world span ID = %#x, want %#x", got, want)
	}
}

// TestSpanTreeAndOrdering: children carry their parent's ID, Spans()
// orders by (Start, Client, ID) with parents at-or-before children, and
// CloseOpenSpans finalizes whatever is still running.
func TestSpanTreeAndOrdering(t *testing.T) {
	rec := NewRecorder()
	join := rec.Client(0).StartSpan(100, "join")
	join.SetBSSID("00:00:00:00:00:01")
	join.SetChannel(1)
	auth := join.StartChild(100, "auth")
	auth.EndStatus(150, "ok")
	dhcp := join.StartChild(150, "dhcp-request")
	dhcp.EndStatus(220, "ok")
	join.EndStatus(220, "complete")
	occ := rec.Client(0).StartSpan(0, "occupancy") // never ended
	occ.SetChannel(1)

	rec.CloseOpenSpans(500)
	spans := rec.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].Name != "occupancy" || spans[0].End != 500 {
		t.Errorf("open span not closed at run end: %+v", spans[0])
	}
	if spans[1].Name != "join" || spans[2].Name != "auth" || spans[3].Name != "dhcp-request" {
		t.Errorf("unexpected order: %v %v %v", spans[1].Name, spans[2].Name, spans[3].Name)
	}
	for _, s := range spans[2:] {
		if s.Parent != spans[1].ID {
			t.Errorf("span %s parent = %#x, want %#x", s.Name, s.Parent, spans[1].ID)
		}
		if s.Start < spans[1].Start || s.End > spans[1].End {
			t.Errorf("child %s [%d,%d] escapes parent [%d,%d]",
				s.Name, s.Start, s.End, spans[1].Start, spans[1].End)
		}
	}
	if spans[1].Status != "complete" || spans[1].Duration() != 120 {
		t.Errorf("root span wrong: %+v", spans[1])
	}
}

// TestSpanEndIdempotent: the first close wins — defensive teardown paths
// re-End spans that their success path already closed.
func TestSpanEndIdempotent(t *testing.T) {
	rec := NewRecorder()
	s := rec.Client(0).StartSpan(10, "join")
	s.EndStatus(20, "complete")
	s.EndStatus(99, "aborted")
	s.End(120)
	sp := rec.Spans()[0]
	if sp.End != 20 || sp.Status != "complete" {
		t.Errorf("later End overwrote the first close: %+v", sp)
	}
}

// TestSpanNegativeCloseDeliversOnce: a close at a negative sim time,
// the open marker -1 included, records End 0, so CloseOpenSpans does not
// close the span a second time, and each span is retained once.
func TestSpanNegativeCloseDeliversOnce(t *testing.T) {
	rec := NewRecorder()
	l := rec.Client(0)
	a, b := l.StartSpan(0, "a"), l.StartSpan(0, "b")
	l.StartSpan(0, "c")
	a.End(-1)
	b.EndStatus(-1, "done")
	rec.CloseOpenSpans(-5) // closes c; a and b are already closed
	rec.CloseOpenSpans(7)
	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	retained := map[SpanID]int{}
	for _, sp := range spans {
		retained[sp.ID]++
	}
	for _, sp := range spans {
		if sp.End != 0 || retained[sp.ID] != 1 {
			t.Errorf("span %q: End %d, retained %d times; want End 0, once", sp.Name, sp.End, retained[sp.ID])
		}
	}
	// Nothing is left open, so new spans open and close on their own and
	// every one of them is retained.
	var more []*ActiveSpan
	for i := 0; i < 5; i++ {
		more = append(more, l.StartSpan(10, "more"))
	}
	for _, h := range more {
		h.End(20)
	}
	if n := len(rec.Spans()); n != 8 {
		t.Fatalf("retained %d spans after five more, want 8", n)
	}
}

// TestSpanJSONLStable: the exported JSONL is a deterministic function of
// the recorded spans (and the run label wraps each line when given).
func TestSpanJSONLStable(t *testing.T) {
	build := func() *Recorder {
		rec := NewRecorder()
		j := rec.Client(3).StartSpan(5, "join")
		j.StartChild(5, "auth").EndStatus(9, "ok")
		j.EndStatus(9, "complete")
		return rec
	}
	var a, b bytes.Buffer
	if err := WriteSpansJSONL(&a, "run1", build().Spans()); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpansJSONL(&b, "run1", build().Spans()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("span JSONL not reproducible:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), `"run":"run1"`) {
		t.Errorf("run label missing: %s", a.String())
	}
	if strings.Contains(a.String(), "-1") {
		t.Errorf("exported spans leak the open-end sentinel: %s", a.String())
	}
}
