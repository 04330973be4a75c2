package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// Recorder stamps one run's events and dispatches them to its
// subscribers. A Recorder belongs to a single scenario run and is written
// from that run's (single) simulation goroutine; reading happens after
// the run completes, or between steps on that goroutine. A nil *Recorder
// disables recording everywhere: the ClientLogs it hands out are nil, and
// every method on those is a no-op.
//
// Events have one code path: Emit stamps an event and hands it to every
// subscriber. Retention is just the first subscriber: NewRecorder
// installs one that keeps every event for Events and Summary, while
// NewStreamingRecorder keeps nothing — the mode the bounded-memory
// telemetry plane runs city-scale populations in.
//
// One rule, ClientLog.Retains, decides what only a retaining recorder
// records. Spans exist only there: a span closes straight into the
// retained timeline, and a streaming recorder's logs open none. The
// chatty kinds (probe, auth and assoc: one event per frame sent, the bulk
// of a dense run's stream) are recorded only there too, since a streaming
// recorder's one subscriber, the telemetry plane, folds none of them.
type Recorder struct {
	seq  uint64
	logs map[int]*ClientLog
	subs []func(Event)

	// kept is the retained timeline; nil on a streaming recorder.
	kept *timeline

	// ClientLog structs are carved from block allocations, so a
	// thousand-client run pays tens of mallocs instead of thousands, and
	// the logs the per-event hot path reads sit densely in memory rather
	// than scattered across the heap.
	logSlab []ClientLog
}

// NewRecorder returns a recorder that retains its whole timeline for
// Events, Spans and Summary.
func NewRecorder() *Recorder {
	r := NewStreamingRecorder()
	r.kept = newTimeline()
	r.Subscribe(r.kept.addEvent)
	return r
}

// NewStreamingRecorder returns a recorder that retains nothing: events
// are delivered to Subscribe observers and then dropped, and no span is
// opened, so memory stays O(clients) at any population and run length.
// Events, Spans, and Summary return nothing in this mode — the stream is
// the product.
func NewStreamingRecorder() *Recorder {
	return &Recorder{logs: make(map[int]*ClientLog)}
}

// Client returns the log for one client ID, creating it on first use.
// Returns nil (the disabled log) on a nil recorder.
func (r *Recorder) Client(id int) *ClientLog {
	if r == nil {
		return nil
	}
	l, ok := r.logs[id]
	if !ok {
		if len(r.logSlab) == 0 {
			// Slabs grow with the population, so a one-client run does
			// not pay for a thousand-client block.
			n := min(max(len(r.logs), 4), logSlabSize)
			r.logSlab = make([]ClientLog, n)
		}
		l = &r.logSlab[0]
		r.logSlab = r.logSlab[1:]
		*l = ClientLog{r: r, id: id}
		r.logs[id] = l
	}
	return l
}

// logSlabSize caps the ClientLog block size (see logSlab).
const logSlabSize = 256

// World returns the log world-scoped events (chaos faults) record under.
func (r *Recorder) World() *ClientLog { return r.Client(WorldClient) }

// Subscribe registers a streaming observer invoked synchronously, on the
// recording (simulation) goroutine, for every event. Observers must be
// fast and non-blocking — spider-serve fans events out to live JSONL
// subscribers through a single registered function that drops to bounded
// per-subscriber buffers. Subscribe is not safe to call concurrently
// with recording: register before the run (or from the goroutine that
// drives it). No-op on a nil recorder.
func (r *Recorder) Subscribe(fn func(Event)) {
	if r == nil || fn == nil {
		return
	}
	r.subs = append(r.subs, fn)
}

// Events returns the retained timeline ordered by (sim-time, client ID,
// sequence) — the canonical artifact order. Each call builds a fresh
// slice from the compact records and sorts it. Nil on a streaming
// recorder.
func (r *Recorder) Events() []Event {
	if r == nil || r.kept == nil {
		return nil
	}
	out := r.kept.allEvents()
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

// Summary counts the retained events by kind.
func (r *Recorder) Summary() Summary {
	if r == nil || r.kept == nil {
		return Summary{}
	}
	return r.kept.summary()
}

// HeldBytes is the bytes the retained timeline holds: its record chunks'
// capacities times their record sizes, plus the interned strings' bytes,
// plus the full-width fields of any event whose client or channel did not
// fit its record. It is counted from the timeline's own structures, so it
// depends only on what was recorded. Zero on a nil or streaming recorder.
func (r *Recorder) HeldBytes() int64 {
	if r == nil || r.kept == nil {
		return 0
	}
	return r.kept.held()
}

// ClientLog is one client's slice of the timeline. The zero of usefulness
// is nil: Emit on a nil log is a single branch and no work.
type ClientLog struct {
	r  *Recorder
	id int

	// open holds this client's open spans, oldest first, for
	// CloseOpenSpans; spanSeq is the client-local allocation counter span
	// IDs derive from — no global state, so IDs are reproducible per
	// client.
	open    []*ActiveSpan
	spanSeq uint32
}

// Emit stamps one event with the client ID and the recorder-global
// sequence and dispatches it to the subscribers. Callers set At, Kind,
// and any payload fields. Safe (and free) on a nil log.
func (l *ClientLog) Emit(ev Event) {
	if l == nil {
		return
	}
	ev.Client = l.id
	ev.Seq = l.r.seq
	l.r.seq++
	for _, fn := range l.r.subs {
		fn(ev)
	}
}

// Enabled reports whether events emitted here are recorded, for callers
// that want to skip payload construction entirely.
func (l *ClientLog) Enabled() bool { return l != nil }

// Retains reports whether this log's recorder keeps its timeline: true
// on a retaining recorder, false on a streaming recorder (see Recorder)
// and on a nil log, where nothing is recorded. Only a log that retains
// opens spans and records the chatty kinds (probe, auth, assoc). It never
// changes, so hot emitters (the driver's probe path) cache it next to
// their own state.
func (l *ClientLog) Retains() bool { return l != nil && l.r.kept != nil }

// WriteJSONL writes events as one JSON object per line.
func WriteJSONL(w io.Writer, run string, evs []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range evs {
		if run == "" {
			if err := enc.Encode(e); err != nil {
				return err
			}
			continue
		}
		if err := enc.Encode(struct {
			Run string `json:"run"`
			Event
		}{Run: run, Event: e}); err != nil {
			return err
		}
	}
	return nil
}
