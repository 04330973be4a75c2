package obs

import (
	"encoding/json"
	"io"
	"slices"
	"sort"

	"spider/internal/sim"
)

// This file adds causal spans to the flat event timeline: intervals of
// simulation time with parent/child links, so consumers (cmd/spider-trace)
// can answer *where did the time go* and *why did this happen* instead of
// re-deriving causality from interleaved events. The span layer follows
// the same three contracts as events: sim-time only, nil-safe everywhere,
// and no randomness — a span ID is a pure function of (client ID, per-
// client sequence), so the exported JSONL is byte-identical across fleet
// worker counts and repeat runs.

// SpanID identifies one span. The high 32 bits hold the owning client's
// ID + 1 (so the world log, client -1, maps to 0) and the low 32 bits the
// client-local allocation sequence starting at 1. Zero means "no span"
// and is what Parent carries on roots.
type SpanID uint64

// MakeSpanID derives the deterministic span ID for a (client, seq) pair.
func MakeSpanID(client int, seq uint32) SpanID {
	return SpanID(uint64(uint32(client+1))<<32 | uint64(seq))
}

// openEnd marks a span still in progress. Recorder.CloseOpenSpans
// finalizes every open span at end of run, so exported spans always have
// End >= Start.
const openEnd = sim.Time(-1)

// Span is one closed (or still-open) interval of the causal timeline.
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	// Client is the owning client's ID (WorldClient for world-scoped
	// spans such as chaos faults).
	Client int `json:"client"`
	// Name is the span type: "join" and its phase children ("scan",
	// "probe", "auth", "assoc", "dhcp-discover", "dhcp-request",
	// "conn-test"), "occupancy" (channel dwell), "link", "outage",
	// "fault".
	Name  string   `json:"name"`
	Start sim.Time `json:"start_ns"`
	// End is the close time in sim nanoseconds (-1 while open; exported
	// artifacts never contain -1 once CloseOpenSpans ran).
	End sim.Time `json:"end_ns"`
	// BSSID names the AP involved, when any.
	BSSID string `json:"bssid,omitempty"`
	// Channel is the 802.11 channel involved, when any.
	Channel int `json:"channel,omitempty"`
	// Status carries the outcome or cause: a join stage, an outage
	// cause ("chaos-fault:…", "out-of-range", "contention",
	// "lease-expiry"), a fault's plan provenance.
	Status string `json:"status,omitempty"`
}

// Duration returns End-Start (zero while the span is open).
func (s Span) Duration() sim.Time {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Open reports whether the span has not ended yet.
func (s Span) Open() bool { return s.End == openEnd }

// ActiveSpan is an open span: the handle holds the span itself until it
// closes. Only a log whose recorder retains its timeline opens spans
// (ClientLog.Retains); everywhere else StartSpan hands out the nil handle,
// the disabled span, on which every method is a single branch and no
// work, so instrumentation sites never test for recording themselves.
// Closing a span moves it into the recorder's timeline, and from then on
// the handle is inert: the setters, End, EndStatus and StartChild do
// nothing. Handles are owned by the single simulation goroutine, like the
// rest of a Recorder.
type ActiveSpan struct {
	l  *ClientLog
	sp Span
}

// open reports whether s is a live handle on a span not yet closed.
func (s *ActiveSpan) open() bool { return s != nil && s.sp.Open() }

// SetBSSID annotates the span with the AP involved.
func (s *ActiveSpan) SetBSSID(bssid string) {
	if s.open() {
		s.sp.BSSID = bssid
	}
}

// SetChannel annotates the span with the channel involved.
func (s *ActiveSpan) SetChannel(ch int) {
	if s.open() {
		s.sp.Channel = ch
	}
}

// SetStatus sets the span's outcome/cause label.
func (s *ActiveSpan) SetStatus(status string) {
	if s.open() {
		s.sp.Status = status
	}
}

// End closes the span at the given sim time. Idempotent: the first close
// wins, so teardown paths may end defensively.
func (s *ActiveSpan) End(at sim.Time) {
	if s.open() {
		s.close(at)
	}
}

// EndStatus closes the span and records its outcome in one call. Like
// End, the first close wins (status included).
func (s *ActiveSpan) EndStatus(at sim.Time, status string) {
	if s.open() {
		s.sp.Status = status
		s.close(at)
	}
}

// close stamps the span's end, retains it, and takes it off its log's
// open list.
func (s *ActiveSpan) close(at sim.Time) {
	s.sp.End = closeTime(at)
	l := s.l
	l.r.kept.addSpan(s.sp)
	i := slices.Index(l.open, s)
	l.open = slices.Delete(l.open, i, i+1)
}

// closeTime is the End a span closed at sim time at records. Sim time
// never runs below zero, and a close at openEnd would leave the span
// reading open after it was retained, so negative times clamp to 0.
func closeTime(at sim.Time) sim.Time { return max(at, 0) }

// StartChild opens a child span under s. On the nil handle, and on a
// closed one, it returns nil, so whole span trees disappear when
// recording is off and no child ever outlives its parent's close.
func (s *ActiveSpan) StartChild(at sim.Time, name string) *ActiveSpan {
	if !s.open() {
		return nil
	}
	child := s.l.StartSpan(at, name)
	child.sp.Parent = s.sp.ID
	return child
}

// StartSpan opens a root span on this client's log. Returns the nil
// handle (all methods no-ops) unless the log retains its timeline: a
// span exists only where it is kept.
func (l *ClientLog) StartSpan(at sim.Time, name string) *ActiveSpan {
	if !l.Retains() {
		return nil
	}
	l.spanSeq++
	s := &ActiveSpan{l: l, sp: Span{
		ID:     MakeSpanID(l.id, l.spanSeq),
		Client: l.id,
		Name:   name,
		Start:  at,
		End:    openEnd,
	}}
	l.open = append(l.open, s)
	return s
}

// Spans returns the retained closed spans ordered by (Start, Client, ID)
// — the canonical artifact order. Within a client, IDs allocate in
// creation order, so a parent always sorts at or before its children.
// Spans still open are not in it until they close (CloseOpenSpans closes
// them all at the end of a run). Like Events, each call builds a fresh
// slice and sorts it. Nil on a streaming recorder.
func (r *Recorder) Spans() []Span {
	if r == nil || r.kept == nil {
		return nil
	}
	out := r.kept.allSpans()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Client != out[j].Client {
			return out[i].Client < out[j].Client
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// CloseOpenSpans finalizes every still-open span at the given time —
// called once when a scenario's engine stops, so run-spanning intervals
// (channel occupancy, a link still up, a persistent fault) export with a
// definite end and parent/child containment holds throughout the tree.
func (r *Recorder) CloseOpenSpans(at sim.Time) {
	if r == nil || r.kept == nil {
		return
	}
	// Sweep logs in client-ID order, so map iteration order never reaches
	// the timeline.
	ids := make([]int, 0, len(r.logs))
	for id := range r.logs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	at = closeTime(at)
	for _, id := range ids {
		l := r.logs[id]
		for _, s := range l.open {
			s.sp.End = at
			r.kept.addSpan(s.sp)
		}
		clear(l.open)
		l.open = l.open[:0]
	}
}

// WriteSpansJSONL writes spans as one JSON object per line, with an
// optional run label prefix field (mirrors WriteJSONL for events).
func WriteSpansJSONL(w io.Writer, run string, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if run == "" {
			if err := enc.Encode(s); err != nil {
				return err
			}
			continue
		}
		if err := enc.Encode(struct {
			Run string `json:"run"`
			Span
		}{Run: run, Span: s}); err != nil {
			return err
		}
	}
	return nil
}
