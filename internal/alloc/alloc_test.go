package alloc

import (
	"testing"

	"spider/internal/dot11"
	"spider/internal/sim"
)

func sec(s int) sim.Time { return sim.Time(s) * 1_000_000_000 }

// fakeSense builds airtime/contender closures over mutable per-channel
// state, standing in for the driver's carrier-sense view.
type fakeSense struct {
	airtime [numChannels]sim.Time
	cont    [numChannels]int
}

func (f *fakeSense) airtimeFn(ch dot11.Channel) sim.Time { return f.airtime[ch] }
func (f *fakeSense) contFn(ch dot11.Channel) int         { return f.cont[ch] }

func newTestPolicy(id int) (*Policy, *fakeSense) {
	p := NewPolicy(id)
	return p, &fakeSense{}
}

func TestObserveInfersBusyChannel(t *testing.T) {
	p, s := newTestPolicy(0)
	chans := []dot11.Channel{dot11.Channel1, dot11.Channel6}
	// Channel 1 is 80% busy with 6 committed transmitters; channel 6
	// lightly contended (3 transmitters, near idle occupancy).
	now := sim.Time(0)
	p.Observe(now, s.airtimeFn, s.contFn, chans)
	for i := 0; i < 10; i++ {
		now += sec(1)
		s.airtime[dot11.Channel1] += sim.Time(float64(sec(1)) * 0.8)
		s.cont[dot11.Channel1] = 6
		s.airtime[dot11.Channel6] += sim.Time(float64(sec(1)) * 0.05)
		s.cont[dot11.Channel6] = 3
		p.Observe(now, s.airtimeFn, s.contFn, chans)
	}
	if l1, l6 := p.Load(dot11.Channel1), p.Load(dot11.Channel6); l1 <= l6 || l1 < 1 {
		t.Fatalf("busy channel load %v not above idle %v", l1, l6)
	}
	// The inferred load must steer both Score and PaceBps toward the
	// idle channel.
	bssid := dot11.MAC(0x100000)
	if s1, s6 := p.Score(bssid, dot11.Channel1, -60), p.Score(bssid, dot11.Channel6, -60); s1 >= s6 {
		t.Fatalf("score on busy channel %v >= idle %v", s1, s6)
	}
	if p1, p6 := p.PaceBps(dot11.Channel1, -60), p.PaceBps(dot11.Channel6, -60); p1 <= 0 || p6 <= 0 || p1 >= p6 {
		t.Fatalf("pace on busy channel %v must be positive and below lightly-loaded %v", p1, p6)
	}
}

func TestScorePrefersStrongerSignal(t *testing.T) {
	p, _ := newTestPolicy(0)
	bssid := dot11.MAC(0x100000)
	near := p.Score(bssid, dot11.Channel1, -50)
	far := p.Score(bssid, dot11.Channel1, -85)
	if near <= far {
		t.Fatalf("near score %v not above far %v", near, far)
	}
	if p.Score(bssid, dot11.Channel1, -200) != 0 {
		t.Fatal("out-of-range candidate must score 0")
	}
}

func TestPreferenceSpreadFansClientsOut(t *testing.T) {
	// Two equal-rate APs: across many clients, the hash spread must make
	// a substantial fraction prefer each AP — that is the anti-herding
	// property. And each client's preference must be stable.
	apA, apB := dot11.MAC(0x100000), dot11.MAC(0x100001)
	prefersA := 0
	const n = 64
	for id := 0; id < n; id++ {
		p := NewPolicy(id)
		a, b := p.Score(apA, dot11.Channel1, -60), p.Score(apB, dot11.Channel1, -60)
		if a == b {
			t.Fatalf("client %d scores tied: spread inactive", id)
		}
		if a > b {
			prefersA++
		}
		p2 := NewPolicy(id)
		if p2.Score(apA, dot11.Channel1, -60) != a {
			t.Fatalf("client %d preference not deterministic", id)
		}
	}
	if prefersA < n/4 || prefersA > 3*n/4 {
		t.Fatalf("herd did not fan out: %d/%d prefer one AP", prefersA, n)
	}
}

func TestPaceTracksContention(t *testing.T) {
	p, s := newTestPolicy(0)
	chans := []dot11.Channel{dot11.Channel1}
	// A never-sensed or uncontended channel runs unpaced: the raw
	// contender count includes the client's own radio and its AP, and
	// with no rival beyond those, self-throttling buys no fairness.
	if got := p.PaceBps(dot11.Channel1, -55); got != 0 {
		t.Fatalf("uncontended channel must be unpaced, got %v", got)
	}
	now := sim.Time(0)
	p.Observe(now, s.airtimeFn, s.contFn, chans)
	for i := 0; i < 20; i++ {
		now += sec(1)
		s.airtime[dot11.Channel1] += sim.Time(float64(sec(1)) * 0.3)
		s.cont[dot11.Channel1] = 3 // self + own AP + one rival
		p.Observe(now, s.airtimeFn, s.contFn, chans)
	}
	light := p.PaceBps(dot11.Channel1, -55)
	if light <= 0 {
		t.Fatal("contended channel must pace")
	}
	// Pacing sits below the raw share (the rate split between the client
	// and its one rival): the share model prices data airtime only, and
	// saturating the channel hands the surplus to the collision lottery.
	if share := p.EstRateBps(-55) / 2; light >= share {
		t.Fatalf("pace %v not below the raw share %v", light, share)
	}
	for i := 0; i < 20; i++ {
		now += sec(1)
		s.airtime[dot11.Channel1] += sec(1) // fully busy
		s.cont[dot11.Channel1] = 8
		p.Observe(now, s.airtimeFn, s.contFn, chans)
	}
	loaded := p.PaceBps(dot11.Channel1, -55)
	if loaded <= 0 || loaded >= light/2 {
		t.Fatalf("pace under saturation %v did not back off from light load %v", loaded, light)
	}
}
