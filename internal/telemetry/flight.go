package telemetry

import (
	"fmt"
	"sort"
	"unsafe"

	"spider/internal/obs"
	"spider/internal/sim"
)

// The flight recorder keeps a bounded window of raw events and closed
// spans next to the rollups, so a city-scale run is not a choice between
// "aggregates only" and "unaffordable full recording". Admission is
// deterministic and worker-invariant:
//
//   - always-keep classes are admitted unconditionally: the outage and
//     fault lifecycles, allocator assignments, IPAM failovers, health
//     transitions, and everything on the world log — the events an
//     incident investigation starts from;
//   - every other event is admitted iff its client is sampled, decided
//     once per client by a derived RNG that is a pure function of
//     (seed, client ID) — no admission state depends on arrival order,
//     worker count, or how full the ring is.
//
// The rings evict oldest-first, and every path that loses data (sampled
// out, evicted) increments a counter that exports with the rollups, so
// truncation is loud rather than silent.

// FlightCounters is the flight recorder's accounting, exported with the
// rollup stream so a reader knows exactly how lossy the window is.
type FlightCounters struct {
	EventCap         int   `json:"event_cap"`
	SpanCap          int   `json:"span_cap"`
	EventsKept       int   `json:"events_kept"`
	SpansKept        int   `json:"spans_kept"`
	EventsAdmitted   int64 `json:"events_admitted"`
	SpansAdmitted    int64 `json:"spans_admitted"`
	EventsSampledOut int64 `json:"events_sampled_out,omitempty"`
	SpansSampledOut  int64 `json:"spans_sampled_out,omitempty"`
	EventsEvicted    int64 `json:"events_evicted,omitempty"`
	SpansEvicted     int64 `json:"spans_evicted,omitempty"`
	ClientsSampled   int   `json:"clients_sampled,omitempty"`
}

// ring is a FIFO of at most capacity entries that overwrites its oldest
// entry when full. Its buffer grows on push, doubling from ringFirst up to
// capacity, so a ring that never fills never pays for its whole capacity;
// once full it wraps in place.
type ring[T any] struct {
	buf      []T
	capacity int
	head     int // index of the oldest entry; nonzero only once full
	evicted  int64
}

// ringFirst is the entries a ring's first buffer holds.
const ringFirst = 64

func (r *ring[T]) push(v T) {
	if len(r.buf) < r.capacity {
		if len(r.buf) == cap(r.buf) {
			grown := make([]T, len(r.buf), min(max(2*cap(r.buf), ringFirst), r.capacity))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, v)
		return
	}
	r.evicted++
	if r.capacity <= 0 {
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
}

// slice returns the retained entries oldest-first.
func (r *ring[T]) slice() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// held is the ring buffer's capacity times the entry size.
func (r *ring[T]) held() int64 {
	var v T
	return int64(cap(r.buf)) * int64(unsafe.Sizeof(v))
}

// flight is the recorder state embedded in the Aggregator.
type flight struct {
	events ring[obs.Event]
	spans  ring[obs.Span]

	// root carries the sampling seed; Derive consumes no parent state,
	// so one root serves every per-client derivation. Constructed once —
	// seeding a math/rand source is the expensive part of an RNG, and a
	// city-scale run touches a thousand clients.
	root     *sim.RNG
	keepFrac float64
	// keep caches the per-client sampling decision, indexed by client ID
	// (0 undecided, 1 keep, 2 drop). Client IDs are dense small ints and
	// this sits on the path of every emitted event — a map lookup here
	// cost ~15ms/run at the 1024-client dense rung.
	keep []uint8

	eventsAdmitted   int64
	spansAdmitted    int64
	eventsSampledOut int64
	spansSampledOut  int64
}

func newFlight(eventCap, spanCap int, seed int64, keepFrac float64) flight {
	return flight{
		events:   ring[obs.Event]{capacity: eventCap},
		spans:    ring[obs.Span]{capacity: spanCap},
		root:     sim.NewRNG(seed),
		keepFrac: keepFrac,
	}
}

// sampled decides (once, deterministically) whether a client's droppable
// events are admitted. World-scoped records never reach here.
func (f *flight) sampled(client int) bool {
	if f.keepFrac >= 1 || client < 0 {
		return true
	}
	if client < len(f.keep) {
		if c := f.keep[client]; c != 0 {
			return c == 1
		}
	} else {
		grown := make([]uint8, client+64)
		copy(grown, f.keep)
		f.keep = grown
	}
	k := f.root.Coin(fmt.Sprintf("flight-client-%05d", client)) < f.keepFrac
	if k {
		f.keep[client] = 1
	} else {
		f.keep[client] = 2
	}
	return k
}

// alwaysKeepEvent lists the event classes admitted regardless of client
// sampling: rare, high-signal lifecycle markers.
func alwaysKeepEvent(k obs.Kind) bool {
	switch k {
	case obs.KindOutageBegin, obs.KindOutageEnd,
		obs.KindFaultBegin, obs.KindFaultEnd,
		obs.KindAllocAssign, obs.KindIPAMFailover,
		obs.KindHealthViolation, obs.KindHealthRecovered:
		return true
	}
	return false
}

// alwaysKeepSpan lists the span names admitted regardless of sampling.
func alwaysKeepSpan(name string) bool {
	return name == "outage" || name == "fault"
}

func (f *flight) admitEvent(e obs.Event) {
	if !alwaysKeepEvent(e.Kind) && e.Client != obs.WorldClient && !f.sampled(e.Client) {
		f.eventsSampledOut++
		return
	}
	f.eventsAdmitted++
	f.events.push(e)
}

func (f *flight) admitSpan(s obs.Span) {
	if !alwaysKeepSpan(s.Name) && s.Client != obs.WorldClient && !f.sampled(s.Client) {
		f.spansSampledOut++
		return
	}
	f.spansAdmitted++
	f.spans.push(s)
}

func (f *flight) counters() FlightCounters {
	sampled := 0
	for _, c := range f.keep {
		if c == 1 {
			sampled++
		}
	}
	return FlightCounters{
		EventCap:         f.events.capacity,
		SpanCap:          f.spans.capacity,
		EventsKept:       len(f.events.buf),
		SpansKept:        len(f.spans.buf),
		EventsAdmitted:   f.eventsAdmitted,
		SpansAdmitted:    f.spansAdmitted,
		EventsSampledOut: f.eventsSampledOut,
		SpansSampledOut:  f.spansSampledOut,
		EventsEvicted:    f.events.evicted,
		SpansEvicted:     f.spans.evicted,
		ClientsSampled:   sampled,
	}
}

// FlightEvents returns the retained raw events in canonical artifact
// order (At, Client, Seq) — ready for obs.WriteJSONL.
func (a *Aggregator) FlightEvents() []obs.Event {
	if a == nil {
		return nil
	}
	out := a.fl.events.slice()
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Client != out[j].Client {
			return out[i].Client < out[j].Client
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// FlightSpans returns the retained closed spans in canonical artifact
// order (Start, Client, ID) — ready for obs.WriteSpansJSONL.
func (a *Aggregator) FlightSpans() []obs.Span {
	if a == nil {
		return nil
	}
	out := a.fl.spans.slice()
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

// HeldBytes is the bytes the flight rings hold: each ring buffer's
// capacity times its entry size. It is counted from the rings themselves,
// so it depends only on what was admitted and on the configured caps.
// Zero on nil.
func (a *Aggregator) HeldBytes() int64 {
	if a == nil {
		return 0
	}
	return a.fl.events.held() + a.fl.spans.held()
}

// FlightCounters returns the recorder's current accounting. Emissions a
// chatty policy suppressed at their call sites count as sampled out —
// they are the same per-client sampling decision, applied earlier — and
// are read live from the probe, so the count is exact whenever it is
// asked for. Call it on the simulation goroutine or a quiescent world.
func (a *Aggregator) FlightCounters() FlightCounters {
	if a == nil {
		return FlightCounters{}
	}
	fc := a.fl.counters()
	if a.probe != nil {
		fc.EventsSampledOut += a.probe().CumSuppressed
	}
	return fc
}
