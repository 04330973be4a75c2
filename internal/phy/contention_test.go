package phy

import (
	"fmt"
	"math"
	"testing"

	"spider/internal/dot11"
	"spider/internal/sim"
)

// certainCollisions returns a medium whose collision model fires on every
// contended attempt, making contention outcomes exact.
func certainCollisions(eng *sim.Engine) *Medium {
	m := NewMedium(eng, sim.NewRNG(1))
	m.collisionProb = 1
	return m
}

func TestNoCollisionsWithoutContention(t *testing.T) {
	eng := sim.NewEngine()
	m := certainCollisions(eng)
	tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	rx := m.NewRadio(dot11.MAC(2), fixedPos(10, 0), 0)
	got := 0
	rx.SetReceiver(func(*dot11.Frame, RxInfo) { got++ })

	// A burst from one radio queues many frames on the channel at once,
	// but a station never contends with itself.
	for i := 0; i < 20; i++ {
		tx.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast, Addr3: dot11.MAC(1)}, nil)
	}
	eng.RunAll()
	if s := m.Stats(); s.Collisions != 0 {
		t.Fatalf("collisions = %d for a single transmitter, want 0", s.Collisions)
	}
	if got != 20 {
		t.Fatalf("delivered %d of 20 frames", got)
	}
}

func TestContendingBroadcastsCollide(t *testing.T) {
	eng := sim.NewEngine()
	m := certainCollisions(eng)
	a := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	b := m.NewRadio(dot11.MAC(2), fixedPos(5, 0), 0)
	rx := m.NewRadio(dot11.MAC(3), fixedPos(10, 0), 0)
	var got []dot11.MACAddr
	rx.SetReceiver(func(f *dot11.Frame, _ RxInfo) { got = append(got, f.Addr2) })

	// Both stations commit at t=0: the first sees an idle channel, the
	// second is contended and (at p=1) must be corrupted.
	a.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast, Addr3: dot11.MAC(1)}, nil)
	b.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast, Addr3: dot11.MAC(2)}, nil)
	eng.RunAll()

	s := m.Stats()
	if s.Collisions != 1 {
		t.Fatalf("collisions = %d, want 1", s.Collisions)
	}
	if len(got) != 1 || got[0] != dot11.MAC(1) {
		t.Fatalf("delivered = %v, want only the uncontended sender's frame", got)
	}
}

func TestCollidedUnicastRetriesAndRecovers(t *testing.T) {
	eng := sim.NewEngine()
	m := certainCollisions(eng)
	a := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	b := m.NewRadio(dot11.MAC(2), fixedPos(5, 0), 0)
	rx := m.NewRadio(dot11.MAC(3), fixedPos(10, 0), 0)
	rx.SetReceiver(func(*dot11.Frame, RxInfo) {})

	// b's unicast commits while a's frame is on the air: the first
	// attempt is corrupted, and the MAC retry (after a's frame has
	// drained) goes through on an idle channel.
	var ok *bool
	a.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast, Addr3: dot11.MAC(1)}, nil)
	b.Send(dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(3), Addr3: dot11.MAC(2)}, func(v bool) { ok = &v })
	eng.RunAll()

	if ok == nil || !*ok {
		t.Fatalf("unicast status = %v, want delivered after retry", ok)
	}
	s := m.Stats()
	if s.Collisions == 0 {
		t.Fatal("no collision recorded for the contended first attempt")
	}
	// One broadcast plus at least two unicast attempts (the corrupted
	// first try and its successful MAC retry).
	if s.FramesSent < 3 {
		t.Fatalf("frames sent = %d, want >=3 (collided unicast must retry)", s.FramesSent)
	}
}

// TestContentionDeterminism: the collision draw happens at commit time, so
// identical event sequences must yield identical medium statistics.
func TestContentionDeterminism(t *testing.T) {
	run := func() string {
		eng := sim.NewEngine()
		m := NewMedium(eng, sim.NewRNG(7))
		m.collisionProb = 0.5
		radios := make([]*Radio, 4)
		for i := range radios {
			radios[i] = m.NewRadio(dot11.MAC(uint32(1+i)), fixedPos(float64(i)*5, 0), 0)
			radios[i].SetReceiver(func(*dot11.Frame, RxInfo) {})
		}
		for round := 0; round < 10; round++ {
			for _, r := range radios {
				r.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast, Addr3: r.MAC()}, nil)
			}
			eng.RunAll()
		}
		return fmt.Sprintf("%+v", m.Stats())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed contention runs differ:\n%s\n%s", a, b)
	}
}

// TestCollisionLawTable holds the per-medium collision table to the
// expression it caches: every entry, filled in any order, is bit-equal to
// 1-(1-p)^k, for k = 1..2048 and several per-contender probabilities.
func TestCollisionLawTable(t *testing.T) {
	const maxK = 2048
	for _, p := range []float64{collisionProb, 0.5, 1, 1e-9, 0.999} {
		m := NewMedium(sim.NewEngine(), sim.NewRNG(1))
		m.collisionProb = p
		for _, k := range sim.NewRNG(int64(p * 1e9)).Perm(maxK) {
			k++
			want := 1 - math.Pow(1-p, float64(k))
			for pass := 0; pass < 2; pass++ { // filled, then cached
				if got := m.collisionLaw(k); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("p=%g k=%d pass %d: table %v, expression %v", p, k, pass, got, want)
				}
			}
		}
	}
}
