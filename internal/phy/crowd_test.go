package phy

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/sim"
)

// newCrowdWorld builds a fixed-seed world in which a receiver at the
// sender's point takes no loss draw unless a noise burst is on. It holds a
// crowd of 40 radios parked at one point, most handling only beacons and
// data, so a probe request sent from inside the crowd reaches receivers
// that neither draw nor get a call. The crowd's order mixes a long
// beacons-and-data stretch, a stretch where every other radio handles all
// types, and an all-types stretch. Members go down and come back, switch
// away and back, close, change receivers and share a MAC; a mover parks
// into the crowd; a member is registered after a gap, behind a radio with
// no receiver; a second crowd sits out of every other radio's range; one
// member's receiver downs and revives another member mid-delivery. Every
// reception (with the receiving radio's index), every Send status and the
// final counters are hashed in order.
func newCrowdWorld() *fanOutWorld {
	eng := sim.NewEngine()
	w := &fanOutWorld{eng: eng, m: NewMedium(eng, sim.NewRNG(11)), h: sha256.New()}
	crowd := geo.Point{X: 40, Y: 30}
	beaconsAndData := []dot11.FrameType{dot11.TypeBeacon, dot11.TypeData}
	var onRecv [50]func() // by radio index: runs after the reception is hashed
	add := func(mac uint32, at geo.Point, types ...dot11.FrameType) *Radio {
		i := len(w.radios)
		r := w.m.NewRadio(dot11.MAC(mac), fixedPos(at.X, at.Y), 0)
		r.SetReceiver(w.hashReception(i, &onRecv[i]), types...)
		w.radios = append(w.radios, r)
		return r
	}
	add(1, geo.Point{})       // AP in range of the crowd
	add(2, geo.Point{X: 150}) // AP out of the crowd's range
	for i := 0; i < 16; i++ { // radios 2..17
		add(uint32(10+i), crowd, beaconsAndData...)
	}
	for i := 0; i < 8; i++ { // radios 18..25: every other one handles all types
		if i%2 == 0 {
			add(uint32(30+i), crowd)
		} else {
			add(uint32(30+i), crowd, beaconsAndData...)
		}
	}
	for i := 0; i < 8; i++ { // radios 26..33: all types
		add(uint32(40+i), crowd)
	}
	for i := 0; i < 8; i++ { // radios 34..41; 39 shares 35's MAC
		mac := uint32(50 + i)
		if i == 5 {
			mac = 51
		}
		add(mac, crowd, beaconsAndData...)
	}
	// Radio 42 drives in from x=220 and parks in the crowd after 9 s,
	// right behind its last member.
	park := 9 * time.Second
	mover := w.m.NewRadio(dot11.MAC(60), func() geo.Point {
		t := min(eng.Now(), park)
		return geo.Point{X: 220 - 20*t.Seconds(), Y: 30}
	}, park)
	mover.SetReceiver(w.hashReception(42, &onRecv[42]), beaconsAndData...)
	w.radios = append(w.radios, mover)
	for i := 0; i < 4; i++ { // radios 43..46: a crowd out of everyone else's range
		add(uint32(70+i), geo.Point{X: 400}, beaconsAndData...)
	}
	// Radio 47 has no receiver; radio 48 rejoins the crowd's point after
	// it; radio 49 shares radio 36's MAC and answers for it while 36 is
	// down or away.
	w.radios = append(w.radios, w.m.NewRadio(dot11.MAC(80), fixedPos(crowd.X, crowd.Y), 0))
	add(81, crowd, beaconsAndData...)
	add(52, geo.Point{X: 10, Y: 10})

	eng.Schedule(2*time.Second, func() { w.radios[38].SetChannel(dot11.Channel6, nil) })
	eng.Schedule(4*time.Second, func() { w.radios[38].SetChannel(dot11.Channel1, nil) })
	eng.Schedule(3*time.Second, func() { w.radios[36].SetDown(true) })
	eng.Schedule(6*time.Second, func() { w.radios[36].SetDown(false) })
	eng.Schedule(5*time.Second, func() { w.m.SetChannelNoise(dot11.Channel1, 0.4) })
	eng.Schedule(7*time.Second, func() { w.m.SetChannelNoise(dot11.Channel1, 1) })
	eng.Schedule(7500*time.Millisecond, func() { w.m.SetChannelNoise(dot11.Channel1, 0) })
	eng.Schedule(8*time.Second, func() {
		r := w.radios[20]
		r.SetReceiver(w.hashReception(20, &onRecv[20]))
	})
	eng.Schedule(10*time.Second, func() { w.radios[40].Close() })
	// Radio 30's 150th call downs radio 33 inside the delivery loop, and
	// its 300th brings it back.
	calls := 0
	onRecv[30] = func() {
		calls++
		switch calls {
		case 150:
			w.radios[33].SetDown(true)
		case 300:
			w.radios[33].SetDown(false)
		}
	}
	return w
}

// hashReception returns a receiver that hashes each reception with the
// receiving radio's index, then runs *after if it is set.
func (w *fanOutWorld) hashReception(i int, after *func()) func(*dot11.Frame, RxInfo) {
	return func(f *dot11.Frame, info RxInfo) {
		w.word(uint64(i))
		w.mac(f.Addr2)
		w.word(uint64(f.Type)<<32 | uint64(f.Seq))
		w.word(uint64(info.Channel))
		w.word(math.Float64bits(info.Distance))
		w.word(uint64(info.At))
		if *after != nil {
			(*after)()
		}
	}
}

// TestPinnedCrowdFanOut is a cross-commit pin of the medium's delivery
// stream through a parked crowd, most of which neither draws nor gets a
// call for a probe request: every reception, every Send outcome and the
// final counters.
func TestPinnedCrowdFanOut(t *testing.T) {
	const want = "2832f11d5190b597d074dc1960286c4a08b54029f3c106b890cf4991afd501fd"
	w := newCrowdWorld()
	w.traffic(12 * time.Second)
	w.eng.RunAll()
	s := w.m.Stats()
	for _, v := range []uint64{s.FramesSent, s.FramesDelivered, s.FramesLost, s.Collisions,
		s.Broadcasts, s.UnicastFailed, 0, 0} { // as in TestPinnedBroadcastFanOut
		w.word(v)
	}
	for ch := dot11.Channel(1); ch <= 14; ch++ {
		w.word(uint64(s.AirtimeByChannel[ch]))
	}
	got := hex.EncodeToString(w.h.Sum(nil))
	t.Logf("stats %+v", s)
	if got != want {
		t.Fatalf("crowd digest = %s, want %s", got, want)
	}
}
