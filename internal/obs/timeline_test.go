package obs

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"spider/internal/sim"
)

// TestTimelineRecordLayout pins the retained record sizes: a change that
// widens a record moves every retaining recorder's footprint.
func TestTimelineRecordLayout(t *testing.T) {
	if s := unsafe.Sizeof(eventRec{}); s != 32 {
		t.Fatalf("eventRec is %d bytes, want 32", s)
	}
	if s := unsafe.Sizeof(spanRec{}); s != 64 {
		t.Fatalf("spanRec is %d bytes, want 64", s)
	}
}

// TestTimelineHeldBytes: the held figure grows by whole chunks, counts
// each distinct string once, and is zero where nothing is retained.
func TestTimelineHeldBytes(t *testing.T) {
	if h := NewStreamingRecorder().HeldBytes(); h != 0 {
		t.Fatalf("streaming recorder holds %d bytes", h)
	}
	var nilRec *Recorder
	if h := nilRec.HeldBytes(); h != 0 {
		t.Fatalf("nil recorder holds %d bytes", h)
	}
	rec := NewRecorder()
	if h := rec.HeldBytes(); h != 0 {
		t.Fatalf("empty recorder holds %d bytes", h)
	}
	l := rec.Client(3)
	for i := 0; i < chunkFirst+1; i++ {
		l.Emit(Event{At: sim.Time(i), Kind: KindProbe, BSSID: "02:00:00:00:00:01", Note: "n"})
	}
	// One full first chunk, a doubled second, and two distinct strings.
	want := int64(chunkFirst+2*chunkFirst)*int64(unsafe.Sizeof(eventRec{})) +
		int64(len("02:00:00:00:00:01")+len("n"))
	if h := rec.HeldBytes(); h != want {
		t.Fatalf("held %d bytes, want %d", h, want)
	}
}

// fuzzExtremes are the int64 values the fuzz program can name by index:
// the edges of every width the timeline might narrow a field to.
var fuzzExtremes = []int64{
	math.MinInt64, math.MaxInt64,
	math.MinInt32, math.MaxInt32, math.MinInt32 - 1, math.MaxInt32 + 1,
	math.MinInt16, math.MaxInt16, math.MinInt16 - 1, math.MaxInt16 + 1,
	-1, 0, 1, 14, 65535, 65536,
}

// fuzzRig drives a retaining recorder from a fuzz program and keeps a
// plain-slice reference timeline beside it: the events as the rig itself
// stamps them, and the spans as the rig itself opens, annotates and
// closes them. A span the recorder retains twice, or not at all, differs
// from the reference at the next check.
type fuzzRig struct {
	prog    []byte
	rec     *Recorder
	logs    []*ClientLog
	handles []*ActiveSpan
	refs    []*refSpan // the reference span behind each handle; nil for nil handles
	seqs    map[int]uint32
	strs    []string // strings the program has used, for repeats
	events  []Event
	spans   []Span // closed reference spans, in close order
}

// refSpan is the rig's reference for one span it opened.
type refSpan struct {
	sp   Span
	open bool
}

func newFuzzRig(prog []byte) *fuzzRig {
	return &fuzzRig{prog: prog, rec: NewRecorder(), seqs: map[int]uint32{}}
}

// open is the reference for a span opened on client's log.
func (r *fuzzRig) open(client int, at sim.Time, name string, parent SpanID) *refSpan {
	r.seqs[client]++
	return &refSpan{open: true, sp: Span{
		ID: MakeSpanID(client, r.seqs[client]), Parent: parent,
		Client: client, Name: name, Start: at, End: -1,
	}}
}

// close ends an open reference span at at, clamped to zero, and files it.
func (r *fuzzRig) close(ref *refSpan, at sim.Time) {
	ref.sp.End, ref.open = max(at, 0), false
	r.spans = append(r.spans, ref.sp)
}

func (r *fuzzRig) byte() byte {
	if len(r.prog) == 0 {
		return 0
	}
	b := r.prog[0]
	r.prog = r.prog[1:]
	return b
}

// int64 reads an extreme, a small signed, a small unsigned or a raw value.
func (r *fuzzRig) int64() int64 {
	switch sel := r.byte(); sel % 4 {
	case 0:
		return fuzzExtremes[int(r.byte())%len(fuzzExtremes)]
	case 1:
		return int64(int8(r.byte()))
	case 2:
		return int64(r.byte())
	default:
		var v uint64
		for i := 0; i < 8; i++ {
			v = v<<8 | uint64(r.byte())
		}
		return int64(v)
	}
}

// str reads an empty, a repeated, a fresh or a long string.
func (r *fuzzRig) str() string {
	switch sel := r.byte(); sel % 4 {
	case 0:
		return ""
	case 1:
		if len(r.strs) == 0 {
			return ""
		}
		return r.strs[int(r.byte())%len(r.strs)]
	default:
		n := int(r.byte()) % 24
		s := string(r.prog[:min(n, len(r.prog))])
		r.prog = r.prog[min(n, len(r.prog)):]
		if sel%4 == 3 {
			s = strings.Repeat(s+"~", 97)
		}
		r.strs = append(r.strs, s)
		return s
	}
}

// log picks a client log, WorldClient and the extremes included.
func (r *fuzzRig) log() *ClientLog {
	if b := r.byte(); b%4 != 0 && len(r.logs) > 0 {
		return r.logs[int(b/4)%len(r.logs)]
	}
	l := r.rec.Client(int(r.int64()))
	r.logs = append(r.logs, l)
	return l
}

// closeOpenSpans sweeps the recorder and the reference alike.
func (r *fuzzRig) closeOpenSpans(at sim.Time) {
	r.rec.CloseOpenSpans(at)
	for _, ref := range r.refs {
		if ref = live(ref); ref != nil {
			r.close(ref, at)
		}
	}
}

// handle picks a span handle and its reference, closed ones included;
// nil when there are none, which exercises the nil handle. The returned
// reference is nil exactly when the handle is, and open only while the
// span is.
func (r *fuzzRig) handle() (*ActiveSpan, *refSpan) {
	b := r.byte()
	if len(r.handles) == 0 {
		return nil, nil
	}
	i := int(b) % len(r.handles)
	return r.handles[i], r.refs[i]
}

// live is ref when it stands for an open span, and nil otherwise.
func live(ref *refSpan) *refSpan {
	if ref == nil || !ref.open {
		return nil
	}
	return ref
}

func (r *fuzzRig) step(t *testing.T) {
	switch op := r.byte(); op % 10 {
	case 0:
		l := r.log()
		ev := Event{
			At:    sim.Time(r.int64()),
			Kind:  Kind(r.byte()),
			BSSID: r.str(), Channel: int(r.int64()),
			Value: r.int64(), Note: r.str(),
			// Emit stamps these: whatever the caller left is overwritten.
			Client: 12345, Seq: 678,
		}
		l.Emit(ev)
		ev.Client, ev.Seq = l.id, uint64(len(r.events))
		r.events = append(r.events, ev)
	case 1:
		l := r.log()
		at, name := sim.Time(r.int64()), r.str()
		h := l.StartSpan(at, name)
		if h == nil {
			t.Fatalf("retaining log %d opened no span", l.id)
		}
		r.handles = append(r.handles, h)
		r.refs = append(r.refs, r.open(l.id, at, name, 0))
	case 2:
		h, ref := r.handle()
		at, name := sim.Time(r.int64()), r.str()
		c := h.StartChild(at, name)
		var cref *refSpan
		if p := live(ref); p != nil {
			cref = r.open(p.sp.Client, at, name, p.sp.ID)
		}
		if (c == nil) != (cref == nil) {
			t.Fatalf("StartChild on a parent open=%v returned %v", cref != nil, c)
		}
		r.handles = append(r.handles, c)
		r.refs = append(r.refs, cref)
	case 3:
		h, ref := r.handle()
		v := r.str()
		h.SetBSSID(v)
		if ref = live(ref); ref != nil {
			ref.sp.BSSID = v
		}
	case 4:
		h, ref := r.handle()
		v := int(r.int64())
		h.SetChannel(v)
		if ref = live(ref); ref != nil {
			ref.sp.Channel = v
		}
	case 5:
		h, ref := r.handle()
		v := r.str()
		h.SetStatus(v)
		if ref = live(ref); ref != nil {
			ref.sp.Status = v
		}
	case 6:
		h, ref := r.handle()
		at := sim.Time(r.int64())
		h.End(at)
		if ref = live(ref); ref != nil {
			r.close(ref, at)
		}
	case 7:
		h, ref := r.handle()
		at, v := sim.Time(r.int64()), r.str()
		h.EndStatus(at, v)
		if ref = live(ref); ref != nil {
			ref.sp.Status = v
			r.close(ref, at)
		}
	case 8:
		r.closeOpenSpans(sim.Time(r.int64()))
	case 9:
		r.check(t)
	}
}

// check compares every read against the reference timeline.
func (r *fuzzRig) check(t *testing.T) {
	t.Helper()
	want := slices.Clone(r.events)
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.Seq < b.Seq
	})
	got := r.rec.Events()
	if !slices.Equal(got, want) || (got == nil) != (len(want) == 0) {
		t.Fatalf("Events:\n got %+v\nwant %+v", got, want)
	}
	wantSp := slices.Clone(r.spans)
	sort.Slice(wantSp, func(i, j int) bool {
		a, b := wantSp[i], wantSp[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.ID < b.ID
	})
	gotSp := r.rec.Spans()
	if !slices.Equal(gotSp, wantSp) || (gotSp == nil) != (len(wantSp) == 0) {
		t.Fatalf("Spans:\n got %+v\nwant %+v", gotSp, wantSp)
	}
	var sum Summary
	for _, e := range r.events {
		if int(e.Kind) < NumKinds {
			sum.Counts[e.Kind]++
		}
	}
	if s := r.rec.Summary(); s != sum {
		t.Fatalf("Summary %v, want %v", s, sum)
	}
	if h, w := r.rec.HeldBytes(), r.wantHeld(); h != w {
		t.Fatalf("HeldBytes %d, want %d", h, w)
	}
}

// wantHeld is the reference's held bytes: whole chunks of event and span
// records, each distinct string once, and one wideEvent per event whose
// client or channel needs the full-width escape.
func (r *fuzzRig) wantHeld() int64 {
	chunked := func(n int, size uintptr) (c int64) {
		for k, m := 0, chunkFirst; k < n; k, m = k+m, min(2*m, chunkMax) {
			c += int64(m) * int64(size)
		}
		return c
	}
	held := chunked(len(r.events), unsafe.Sizeof(eventRec{})) + chunked(len(r.spans), unsafe.Sizeof(spanRec{}))
	seen := map[string]bool{"": true}
	intern := func(ss ...string) {
		for _, s := range ss {
			if !seen[s] {
				seen[s] = true
				held += int64(len(s))
			}
		}
	}
	for _, e := range r.events {
		intern(e.BSSID, e.Note)
		if e.Client < math.MinInt32+1 || e.Client > math.MaxInt32 ||
			e.Channel < math.MinInt16 || e.Channel > math.MaxInt16 {
			held += int64(unsafe.Sizeof(wideEvent{}))
		}
	}
	for _, s := range r.spans {
		intern(s.Name, s.BSSID, s.Status)
	}
	return held
}

// FuzzTimeline decodes its input into calls across several client logs —
// Emit, StartSpan and StartChild, the Set* setters, End and EndStatus,
// CloseOpenSpans — with reads of Events, Spans, Summary and HeldBytes
// mid-run and at the end, each compared with the plain-slice reference.
// The committed corpus covers a join-shaped run, fields at the edges of
// every narrow width, empty, repeated and long strings, closed handles and
// timelines that cross chunk boundaries.
func FuzzTimeline(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := newFuzzRig(prog[:min(len(prog), 4096)])
		for len(r.prog) > 0 {
			r.step(t)
		}
		r.check(t)
		r.closeOpenSpans(0)
		r.check(t)
	})
}
