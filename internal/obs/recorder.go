package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Recorder stamps one run's events and spans and dispatches them to its
// subscribers. A Recorder belongs to a single scenario run and is written
// from that run's (single) simulation goroutine; reading happens after
// the run completes, or between steps on that goroutine. A nil *Recorder
// disables recording everywhere: the ClientLogs it hands out are nil, and
// every method on those is a no-op.
//
// There is one code path. Emit stamps an event and hands it to every
// subscriber; a span is handed over when it closes, and its slot goes
// back on its log's free list. Retention is just the first subscriber:
// NewRecorder installs one that keeps every event and closed span for
// Events, Spans and Summary, while NewStreamingRecorder keeps nothing —
// the mode the bounded-memory telemetry plane runs city-scale
// populations in.
type Recorder struct {
	seq      uint64
	logs     map[int]*ClientLog
	subs     []func(Event)
	spanSubs []func(Span)

	// kept is the retention subscriber's store; nil on a streaming
	// recorder.
	kept *timeline

	// chattyPolicy, when set, decides once per client (at log creation)
	// whether the client's chatty diagnostic events — the per-probe and
	// per-handshake-attempt kinds that dominate a dense run's stream —
	// are recorded at all.
	chattyPolicy func(client int) bool

	// ClientLog structs and their span slots are carved from block
	// allocations, so a thousand-client run pays tens of mallocs instead
	// of thousands, and the logs the per-event hot path reads sit densely
	// in memory rather than scattered across the heap.
	logSlab  []ClientLog
	spanSlab []Span
}

// timeline is what a retaining recorder keeps: every event and every
// closed span, in dispatch order.
type timeline struct {
	events []Event
	spans  []Span
}

// NewRecorder returns a recorder that retains its whole timeline for
// Events, Spans and Summary.
func NewRecorder() *Recorder {
	r := NewStreamingRecorder()
	kept := &timeline{}
	r.kept = kept
	r.Subscribe(func(e Event) { kept.events = append(kept.events, e) })
	r.SubscribeSpans(func(s Span) { kept.spans = append(kept.spans, s) })
	return r
}

// NewStreamingRecorder returns a recorder that retains nothing: events
// and closed spans are delivered to Subscribe/SubscribeSpans observers
// and then dropped, so memory stays O(open spans + clients) at any
// population and run length. Events, Spans, and Summary return nothing
// in this mode — the stream is the product.
func NewStreamingRecorder() *Recorder {
	return &Recorder{logs: make(map[int]*ClientLog)}
}

// Streaming reports whether the recorder retains nothing (false on nil:
// a nil recorder records nothing at all, which callers test separately).
func (r *Recorder) Streaming() bool { return r != nil && r.kept == nil }

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
			r.spanSlab = make([]Span, n*spanSlots)
		}
		l = &r.logSlab[0]
		r.logSlab = r.logSlab[1:]
		*l = ClientLog{r: r, id: id, chatty: true}
		l.spans = r.spanSlab[0:0:spanSlots]
		r.spanSlab = r.spanSlab[spanSlots:]
		if r.chattyPolicy != nil && id != WorldClient {
			l.chatty = r.chattyPolicy(id)
		}
		r.logs[id] = l
	}
	return l
}

// logSlabSize caps the ClientLog block size (see logSlab).
const logSlabSize = 256

// spanSlots is the per-client span-slot reservation: the free list
// recycles closed slots, so a log only needs its maximum concurrently-
// open span depth, which the join pipeline keeps in single digits.
const spanSlots = 8

// SetChattyPolicy installs the per-client chatty-event admission policy:
// fn is consulted once per client, when its log is created, and a false
// verdict makes ChattyFlag report false for that log forever after. The
// world log is never suppressed. Install before the run creates any
// client log (the telemetry plane does so at Bind, which core calls
// before the world is built); logs that already exist keep their
// decision. No-op on a nil recorder.
func (r *Recorder) SetChattyPolicy(fn func(client int) bool) {
	if r == nil {
		return
	}
	r.chattyPolicy = fn
}

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

// SubscribeSpans registers a streaming observer invoked synchronously,
// on the recording goroutine, for every span as it closes (End,
// EndStatus, or the final CloseOpenSpans sweep). The delivered Span is a
// copy — observers may keep it. Same registration contract as Subscribe:
// before the run, not concurrently with it. No-op on a nil recorder.
func (r *Recorder) SubscribeSpans(fn func(Span)) {
	if r == nil || fn == nil {
		return
	}
	r.spanSubs = append(r.spanSubs, fn)
}

// Events returns the retained timeline ordered by (sim-time, client ID,
// sequence) — the canonical artifact order. Nil on a streaming recorder.
func (r *Recorder) Events() []Event {
	if r == nil || r.kept == nil {
		return nil
	}
	out := append([]Event(nil), r.kept.events...)
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
	var s Summary
	if r == nil || r.kept == nil {
		return s
	}
	for _, e := range r.kept.events {
		if int(e.Kind) < NumKinds {
			s.Counts[e.Kind]++
		}
	}
	return s
}

// ClientLog is one client's slice of the timeline. The zero of usefulness
// is nil: Emit on a nil log is a single branch and no work.
type ClientLog struct {
	r  *Recorder
	id int

	// chatty is the client's cached chatty-policy verdict (true when no
	// policy is installed); see ChattyFlag.
	chatty bool

	// spans holds this client's open spans plus closed slots waiting on
	// spanFree for reuse; spanSeq is the client-local allocation counter
	// span IDs derive from — no global state, so IDs are reproducible per
	// client. Reuse bumps a slot's spanGen, so stale ActiveSpan handles
	// turn into no-ops instead of scribbling on the recycled slot.
	spans    []Span
	spanSeq  uint32
	spanGen  []uint32
	spanFree []int
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

// ChattyFlag reports whether this client's chatty diagnostic events
// (probes, per-attempt handshake counters — the kinds that dominate a
// dense run's stream) should be rendered and emitted. The decision is
// immutable, so hot emitters (the driver's probe path) cache it next to
// their own state and count the emissions it suppressed themselves.
// False on a nil log, where nothing is recorded.
func (l *ClientLog) ChattyFlag() bool { return l != nil && l.chatty }

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

// Collector accumulates the per-run event streams of a multi-run sweep
// and exports them in canonical run-label order, so the merged artifact
// is byte-identical however runs were scheduled across workers. Add is
// safe to call from fleet job goroutines.
type Collector struct {
	mu    sync.Mutex
	runs  map[string][]Event
	spans map[string][]Span
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{runs: make(map[string][]Event), spans: make(map[string][]Span)}
}

// Add stores one run's (already ordered) event stream under its label.
// Adding the same label twice appends, preserving call order per label.
func (c *Collector) Add(run string, evs []Event) {
	if c == nil || len(evs) == 0 {
		return
	}
	c.mu.Lock()
	c.runs[run] = append(c.runs[run], evs...)
	c.mu.Unlock()
}

// Runs returns the stored run labels in sorted (export) order.
func (c *Collector) Runs() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	labels := make([]string, 0, len(c.runs))
	for l := range c.runs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}

// WriteJSONL exports every run's stream, runs in sorted label order and
// events in recorded order within each run.
func (c *Collector) WriteJSONL(w io.Writer) error {
	if c == nil {
		return nil
	}
	for _, run := range c.Runs() {
		c.mu.Lock()
		evs := c.runs[run]
		c.mu.Unlock()
		if err := WriteJSONL(w, run, evs); err != nil {
			return err
		}
	}
	return nil
}

// Summary folds every stored run's events into one summary.
func (c *Collector) Summary() Summary {
	var s Summary
	if c == nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, evs := range c.runs {
		for _, e := range evs {
			if int(e.Kind) < NumKinds {
				s.Counts[e.Kind]++
			}
		}
	}
	return s
}
