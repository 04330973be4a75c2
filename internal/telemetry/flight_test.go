package telemetry

import (
	"slices"
	"testing"
)

// wholeRing is the flight ring as it was first written: the buffer is
// allocated whole up front, and the ring wraps once n reaches it. The
// growing ring must be indistinguishable from it.
type wholeRing struct {
	buf     []int
	head, n int
	evicted int64
}

func (r *wholeRing) push(v int) {
	if len(r.buf) == 0 {
		r.evicted++
		return
	}
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	r.evicted++
}

func (r *wholeRing) slice() []int {
	out := make([]int, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// TestRingGrowsLikeWholeRing: pushing 0, cap-1, cap, cap+1 and 3·cap
// entries into the growing ring leaves the same entries, in the same
// order, and the same kept, evicted and capacity counts as a ring
// allocated whole; a zero or negative capacity evicts every push.
func TestRingGrowsLikeWholeRing(t *testing.T) {
	for _, capacity := range []int{-3, 0, 1, 2, 5, ringFirst - 1, ringFirst, ringFirst + 1, 300, 4096} {
		for _, pushes := range []int{0, capacity - 1, capacity, capacity + 1, 3 * capacity} {
			if pushes < 0 {
				continue
			}
			got := ring[int]{capacity: capacity}
			want := wholeRing{buf: make([]int, max(capacity, 0))}
			for i := 0; i < pushes; i++ {
				got.push(i)
				want.push(i)
			}
			if g, w := got.slice(), want.slice(); !slices.Equal(g, w) {
				t.Fatalf("cap %d, %d pushes: slice %v, want %v", capacity, pushes, g, w)
			}
			if len(got.buf) != want.n || got.evicted != want.evicted {
				t.Fatalf("cap %d, %d pushes: kept %d evicted %d, want %d and %d",
					capacity, pushes, len(got.buf), got.evicted, want.n, want.evicted)
			}
			if max(got.capacity, 0) != len(want.buf) {
				t.Fatalf("cap %d: reports capacity %d, want %d", capacity, got.capacity, len(want.buf))
			}
			if capacity <= 0 && got.evicted != int64(pushes) {
				t.Fatalf("cap %d: %d of %d pushes evicted", capacity, got.evicted, pushes)
			}
			if c := cap(got.buf); c > max(capacity, 0) {
				t.Fatalf("cap %d: buffer grew to %d", capacity, c)
			}
		}
	}
}

// TestFlightCountersReportConfiguredCaps: the caps FlightCounters exports
// are the configured ones whether or not the rings have grown to them.
func TestFlightCountersReportConfiguredCaps(t *testing.T) {
	a := New(Config{FlightEvents: 100, FlightSpans: -1})
	fc := a.FlightCounters()
	if fc.EventCap != 100 || fc.SpanCap != 0 {
		t.Fatalf("caps %d/%d, want 100/0", fc.EventCap, fc.SpanCap)
	}
	if h := a.HeldBytes(); h != 0 {
		t.Fatalf("empty aggregator holds %d bytes", h)
	}
}
