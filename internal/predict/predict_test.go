package predict

import (
	"testing"
	"testing/quick"

	"spider/internal/dot11"
	"spider/internal/geo"
)

func obs(x, y float64, ch dot11.Channel, score float64) Observation {
	return Observation{Pos: geo.Point{X: x, Y: y}, Channel: ch, BSSID: dot11.MAC(1), Score: score}
}

func TestRecordAndBestChannel(t *testing.T) {
	h := New()
	if _, ok := h.BestChannel(geo.Point{X: 50, Y: 50}); ok {
		t.Fatal("empty history recommended a channel")
	}
	h.Record(obs(50, 50, dot11.Channel6, 1.0))
	h.Record(obs(60, 40, dot11.Channel6, 1.0))
	h.Record(obs(55, 45, dot11.Channel1, 0.1))
	ch, ok := h.BestChannel(geo.Point{X: 50, Y: 50})
	if !ok || ch != dot11.Channel6 {
		t.Fatalf("best = %v/%v, want ch6", ch, ok)
	}
	if h.Observations != 3 || len(h.cells) != 1 {
		t.Fatalf("obs=%d cells=%d", h.Observations, len(h.cells))
	}
}

func TestNeighbourCellsCount(t *testing.T) {
	h := New()
	// Observation in the adjacent cell still informs the query point.
	h.Record(obs(150, 50, dot11.Channel11, 1.0))
	ch, ok := h.BestChannel(geo.Point{X: 95, Y: 50})
	if !ok || ch != dot11.Channel11 {
		t.Fatalf("neighbour aggregation failed: %v/%v", ch, ok)
	}
	// Two cells away is out of the neighbourhood.
	if _, ok := h.BestChannel(geo.Point{X: 950, Y: 50}); ok {
		t.Fatal("far cell should not be informed")
	}
}

func TestMinScoreGate(t *testing.T) {
	h := New()
	h.Record(obs(10, 10, dot11.Channel1, 0.2))
	if _, ok := h.BestChannel(geo.Point{X: 10, Y: 10}); ok {
		t.Fatal("weak evidence cleared the minScore gate")
	}
	h.Record(obs(10, 10, dot11.Channel1, 0.9))
	if _, ok := h.BestChannel(geo.Point{X: 10, Y: 10}); !ok {
		t.Fatal("strong evidence did not clear the gate")
	}
}

func TestNegativeScoresSteerAway(t *testing.T) {
	h := New()
	// ch1 looks good until repeated failures poison it; ch6 stays solid.
	h.Record(obs(10, 10, dot11.Channel1, 1.0))
	h.Record(obs(10, 10, dot11.Channel6, 0.8))
	for i := 0; i < 5; i++ {
		h.Record(obs(10, 10, dot11.Channel1, -0.5))
	}
	ch, ok := h.BestChannel(geo.Point{X: 10, Y: 10})
	if !ok || ch != dot11.Channel6 {
		t.Fatalf("best = %v/%v, want ch6 after ch1 poisoning", ch, ok)
	}
}

func TestDecayFavoursRecency(t *testing.T) {
	h := New()
	// Old glory on ch1, recent success on ch11.
	for i := 0; i < 10; i++ {
		h.Record(obs(10, 10, dot11.Channel1, 1.0))
	}
	cell := h.cells[h.key(geo.Point{X: 10, Y: 10})]
	old := cell[dot11.Channel1]
	if bound := 1 / (1 - decay); old >= bound {
		t.Fatalf("decayed accumulation = %v, want bounded by 1/(1-decay)=%v", old, bound)
	}
	// A string of failures rapidly displaces the old signal.
	for i := 0; i < 4; i++ {
		h.Record(obs(10, 10, dot11.Channel1, -1.0))
	}
	if s := cell[dot11.Channel1]; s > 0 {
		t.Fatalf("score after failures = %v, want negative", s)
	}
}

func TestInvalidChannelIgnored(t *testing.T) {
	h := New()
	h.Record(Observation{Pos: geo.Point{}, Channel: 0, Score: 1})
	if h.Observations != 0 {
		t.Fatal("invalid channel recorded")
	}
}

func TestNegativeCoordinates(t *testing.T) {
	h := New()
	h.Record(obs(-150, -250, dot11.Channel6, 1.0))
	ch, ok := h.BestChannel(geo.Point{X: -160, Y: -260})
	if !ok || ch != dot11.Channel6 {
		t.Fatalf("negative-coordinate lookup failed: %v/%v", ch, ok)
	}
}

// Property: BestChannel only ever returns channels that were recorded, and
// determinism holds for tied scores.
func TestPropertyBestChannelSane(t *testing.T) {
	f := func(points []uint16, chans []uint8) bool {
		h := New()
		n := len(points)
		if len(chans) < n {
			n = len(chans)
		}
		recorded := map[dot11.Channel]bool{}
		for i := 0; i < n; i++ {
			ch := dot11.Channel(chans[i]%11) + 1
			recorded[ch] = true
			h.Record(obs(float64(points[i]%1000), 0, ch, 1.0))
		}
		for x := 0.0; x < 1000; x += 100 {
			if ch, ok := h.BestChannel(geo.Point{X: x}); ok && !recorded[ch] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
