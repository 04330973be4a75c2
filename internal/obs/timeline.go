package obs

import (
	"math"
	"unsafe"

	"spider/internal/sim"
)

// timeline is what a retaining recorder keeps: every event and every
// closed span, in dispatch order. A serve world keeps its timeline for
// its whole life, so the records are compact and hold no pointers — the
// garbage collector never scans them — and they sit in chunks that are
// allocated once and never grown or copied. Strings live once each in the
// recorder's string table, and a record names them by index.
type timeline struct {
	events chunks[eventRec]
	spans  chunks[spanRec]
	strs   strtab
	// wide holds the exact client and channel of every event whose values
	// do not fit its record's narrow fields, keyed by the event's Seq.
	// Shipped worlds never need it: client IDs run from -1 to 65,535 and
	// channels from 0 to 14.
	wide map[uint64]wideEvent
}

// eventRec is one retained Event, 32 bytes. Its Seq is its position in
// the timeline: retention is the recorder's first subscriber, so it sees
// every event, in Seq order. BSSID and Note are string-table indices.
// Client and Channel are narrowed; a client of wideMark says both sit in
// timeline.wide instead.
type eventRec struct {
	at, value   int64
	bssid, note uint32
	client      int32
	channel     int16
	kind        Kind
}

// wideMark in eventRec.client sends a reader to timeline.wide.
const wideMark = math.MinInt32

// wideEvent is an escaped event's full-width client and channel.
type wideEvent struct{ client, channel int }

// spanRec is one retained closed Span, 64 bytes: full-width fields, with
// Name, BSSID and Status as string-table indices.
type spanRec struct {
	id, parent          SpanID
	start, end          sim.Time
	client, channel     int
	name, bssid, status uint32
}

func newTimeline() *timeline {
	return &timeline{strs: strtab{s: []string{""}, ids: make(map[string]uint32)}}
}

// addEvent retains one event; it is the recorder's first subscriber.
func (t *timeline) addEvent(e Event) {
	r := eventRec{
		at:      int64(e.At),
		value:   e.Value,
		bssid:   t.strs.id(e.BSSID),
		note:    t.strs.id(e.Note),
		client:  int32(e.Client),
		channel: int16(e.Channel),
		kind:    e.Kind,
	}
	if r.client == wideMark || int(r.client) != e.Client || int(r.channel) != e.Channel {
		r.client = wideMark
		if t.wide == nil {
			t.wide = make(map[uint64]wideEvent)
		}
		t.wide[uint64(t.events.n)] = wideEvent{e.Client, e.Channel}
	}
	t.events.push(r)
}

// addSpan retains one closed span.
func (t *timeline) addSpan(s Span) {
	t.spans.push(spanRec{
		id: s.ID, parent: s.Parent,
		start: s.Start, end: s.End,
		client: s.Client, channel: s.Channel,
		name: t.strs.id(s.Name), bssid: t.strs.id(s.BSSID), status: t.strs.id(s.Status),
	})
}

// allEvents materializes the retained events in dispatch order; nil when
// there are none.
func (t *timeline) allEvents() []Event {
	if t.events.n == 0 {
		return nil
	}
	out := make([]Event, 0, t.events.n)
	for _, c := range t.events.c {
		for i := range c {
			r := &c[i]
			e := Event{
				At:      sim.Time(r.at),
				Client:  int(r.client),
				Seq:     uint64(len(out)),
				Kind:    r.kind,
				BSSID:   t.strs.s[r.bssid],
				Channel: int(r.channel),
				Value:   r.value,
				Note:    t.strs.s[r.note],
			}
			if r.client == wideMark {
				w := t.wide[e.Seq]
				e.Client, e.Channel = w.client, w.channel
			}
			out = append(out, e)
		}
	}
	return out
}

// allSpans materializes the retained spans in close order; nil when
// there are none.
func (t *timeline) allSpans() []Span {
	if t.spans.n == 0 {
		return nil
	}
	out := make([]Span, 0, t.spans.n)
	for _, c := range t.spans.c {
		for i := range c {
			r := &c[i]
			out = append(out, Span{
				ID: r.id, Parent: r.parent,
				Client: r.client,
				Name:   t.strs.s[r.name],
				Start:  r.start, End: r.end,
				BSSID:   t.strs.s[r.bssid],
				Channel: r.channel,
				Status:  t.strs.s[r.status],
			})
		}
	}
	return out
}

// summary counts the retained events by kind.
func (t *timeline) summary() Summary {
	var s Summary
	for _, c := range t.events.c {
		for i := range c {
			if k := c[i].kind; int(k) < NumKinds {
				s.Counts[k]++
			}
		}
	}
	return s
}

// held is the bytes the timeline holds: every chunk's capacity times its
// record size, the interned strings' bytes, and the full-width fields of
// escaped events.
func (t *timeline) held() int64 {
	return t.events.held() + t.spans.held() + t.strs.bytes +
		int64(len(t.wide))*int64(unsafe.Sizeof(wideEvent{}))
}

// Chunk sizes, in records: the first chunk is small, so the serve
// lifecycle recorder or a ten-event run does not pay for thousands of
// records, and each later chunk doubles up to the cap, which bounds the
// unused tail of a long timeline to one chunk.
const (
	chunkFirst = 16
	chunkMax   = 4096
)

// chunks is an append-only sequence of records stored in chunks that are
// allocated once and never grown or copied.
type chunks[T any] struct {
	c [][]T
	n int
}

func (c *chunks[T]) push(v T) {
	k := len(c.c)
	if k == 0 || len(c.c[k-1]) == cap(c.c[k-1]) {
		size := chunkFirst
		if k > 0 {
			size = min(2*cap(c.c[k-1]), chunkMax)
		}
		c.c = append(c.c, make([]T, 0, size))
		k++
	}
	c.c[k-1] = append(c.c[k-1], v)
	c.n++
}

// held is every chunk's capacity times the record size.
func (c *chunks[T]) held() int64 {
	var v T
	n := 0
	for _, ch := range c.c {
		n += cap(ch)
	}
	return int64(n) * int64(unsafe.Sizeof(v))
}

// strtab interns a recorder's strings. Index 0 is the empty string, and
// every other string is stored once, however many records name it.
type strtab struct {
	s     []string
	ids   map[string]uint32
	bytes int64 // summed length of the interned strings
}

func (t *strtab) id(s string) uint32 {
	if s == "" {
		return 0
	}
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint32(len(t.s))
	t.s = append(t.s, s)
	t.ids[s] = id
	t.bytes += int64(len(s))
	return id
}
