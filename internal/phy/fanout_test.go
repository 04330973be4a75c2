package phy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
	"time"

	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/sim"
)

// fanOutWorld is a fixed-seed medium exercising every branch of the
// receiver loop: a co-located still cluster in range, a co-located still
// cluster out of range, a moving pair sharing one position, a radio that
// drives in and parks inside the cluster, a downed radio, a switching
// radio, a closed radio, a radio with no receiver, a noise burst,
// contention collisions and unicast retries at the range edge. Every
// delivery and every Send status is hashed in order.
type fanOutWorld struct {
	eng    *sim.Engine
	m      *Medium
	radios []*Radio
	h      hash.Hash
	got    []reception
}

type reception struct {
	rx, tx dot11.MACAddr
	typ    dot11.FrameType
	seq    uint16
	info   RxInfo
}

func (w *fanOutWorld) word(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.h.Write(b[:])
}

func (w *fanOutWorld) mac(m dot11.MACAddr) { w.h.Write(m[:]) }

// newFanOutWorld builds the world. With types given, every odd-numbered
// radio's receiver handles only those frame types.
func newFanOutWorld(types ...dot11.FrameType) *fanOutWorld {
	eng := sim.NewEngine()
	w := &fanOutWorld{eng: eng, m: NewMedium(eng, sim.NewRNG(7)), h: sha256.New()}
	still := func(x, y float64) (func() geo.Point, sim.Time) { return fixedPos(x, y), 0 }
	// drive moves from (x0, y0) at vx m/s along x and, when park > 0,
	// stops for good at the point it reaches at park.
	drive := func(x0, y0, vx float64, park sim.Time) (func() geo.Point, sim.Time) {
		pos := func() geo.Point {
			t := eng.Now()
			if park > 0 && t > park {
				t = park
			}
			return geo.Point{X: x0 + vx*t.Seconds(), Y: y0}
		}
		if park > 0 {
			return pos, park
		}
		return pos, sim.Infinity
	}
	add := func(pos func() geo.Point, stillFrom sim.Time, recv bool) *Radio {
		r := w.m.NewRadio(dot11.MAC(uint32(1+len(w.radios))), pos, stillFrom)
		if recv {
			var accept []dot11.FrameType
			if len(w.radios)%2 == 1 {
				accept = types
			}
			r.SetReceiver(func(f *dot11.Frame, info RxInfo) {
				w.mac(r.MAC())
				w.mac(f.Addr2)
				w.word(uint64(f.Type)<<32 | uint64(f.Seq))
				w.word(uint64(info.Channel))
				w.word(math.Float64bits(info.Distance))
				w.word(uint64(info.At))
				w.got = append(w.got, reception{r.MAC(), f.Addr2, f.Type, f.Seq, info})
			}, accept...)
		}
		w.radios = append(w.radios, r)
		return r
	}
	for _, p := range [][2]float64{{0, 0}, {150, 0}} { // two APs
		pos, sf := still(p[0], p[1])
		add(pos, sf, true)
	}
	for i := 0; i < 6; i++ { // the in-range cluster
		pos, sf := still(40, 30)
		add(pos, sf, true)
	}
	for i := 0; i < 4; i++ { // parked out of every radio's range
		pos, sf := still(400, 0)
		add(pos, sf, true)
	}
	for i := 0; i < 2; i++ { // a moving pair, never parked
		pos, sf := drive(-120, 5, 15, 0)
		add(pos, sf, true)
	}
	// Drives in from x=220 and parks at (40, 30) after 9 s, beside the
	// cluster but registered after the radios between.
	pos, sf := drive(220, 30, -20, 9*time.Second)
	add(pos, sf, true)
	pos, sf = still(10, 10)
	down := add(pos, sf, true)
	pos, sf = still(30, -20)
	switcher := add(pos, sf, true)
	pos, sf = still(5, 5)
	add(pos, sf, false) // no receiver: never drawn for
	pos, sf = still(40, 30)
	add(pos, sf, true) // the cluster's position again, after a gap

	eng.Schedule(3*time.Second, func() { down.SetDown(true) })
	eng.Schedule(6*time.Second, func() { down.SetDown(false) })
	eng.Schedule(2*time.Second, func() { switcher.SetChannel(dot11.Channel6, nil) })
	eng.Schedule(4*time.Second, func() { switcher.SetChannel(dot11.Channel1, nil) })
	eng.Schedule(5*time.Second, func() { w.m.SetChannelNoise(dot11.Channel1, 0.4) })
	eng.Schedule(7*time.Second, func() { w.m.SetChannelNoise(dot11.Channel1, 0) })
	eng.Schedule(10*time.Second, func() { w.radios[13].Close() })
	return w
}

// traffic schedules the run's sends from their own stream, so the medium's
// draws are the only ones the loop under test can move.
func (w *fanOutWorld) traffic(until sim.Time) {
	rng := sim.NewRNG(99)
	types := []dot11.FrameType{dot11.TypeBeacon, dot11.TypeProbeReq, dot11.TypeAuth, dot11.TypeData}
	for at := sim.Time(0); at < until; at += 15 * time.Millisecond {
		burst := 1 + rng.Intn(3) // up to three senders contend at once
		for i := 0; i < burst; i++ {
			src := w.radios[rng.Intn(len(w.radios))]
			f := dot11.Frame{Type: types[rng.Intn(len(types))], Addr1: dot11.Broadcast, Addr3: src.MAC()}
			if f.Type == dot11.TypeData || f.Type == dot11.TypeAuth {
				f.Addr1 = w.radios[rng.Intn(len(w.radios))].MAC()
			}
			if f.Type == dot11.TypeData {
				f.Packet = segment(200 + rng.Intn(1200))
			}
			w.eng.ScheduleAt(at, func() {
				f.Seq = src.NextSeq()
				src.Send(f, func(ok bool) {
					w.mac(src.MAC())
					w.word(uint64(f.Seq))
					if ok {
						w.word(uint64(w.eng.Now()) | 1<<63)
					} else {
						w.word(uint64(w.eng.Now()))
					}
				})
			})
		}
	}
}

// TestPinnedBroadcastFanOut is a cross-commit pin of the medium's delivery
// stream: every receiver, frame, distance (to the bit) and time, every
// Send outcome, and the final counters. A change to the receiver loop that
// moves one loss draw, skips one receiver or reorders two changes the
// digest.
func TestPinnedBroadcastFanOut(t *testing.T) {
	const want = "0577155d3ea562b50c6c34ff3fada0132b6868be46d0aa6081797945356b81d6"
	w := newFanOutWorld()
	w.traffic(12 * time.Second)
	w.eng.RunAll()
	s := w.m.Stats()
	// The two zero words stand where two rate-adaptation counters were
	// hashed, so the digest carries over from the commits that had them.
	for _, v := range []uint64{s.FramesSent, s.FramesDelivered, s.FramesLost, s.Collisions,
		s.Broadcasts, s.UnicastFailed, 0, 0} {
		w.word(v)
	}
	for ch := dot11.Channel(1); ch <= 14; ch++ {
		w.word(uint64(s.AirtimeByChannel[ch]))
	}
	got := hex.EncodeToString(w.h.Sum(nil))
	t.Logf("stats %+v", s)
	if got != want {
		t.Fatalf("fan-out digest = %s, want %s", got, want)
	}
}

// TestTypedReceiverKeepsDrawsAndCounts runs the pinned world with half the
// receivers handling only beacons and data. A reception of another type
// must still take its loss draw and count as delivered or lost, so the
// counters and every handled reception stay as in the untyped run; the
// unhandled receptions simply produce no call.
func TestTypedReceiverKeepsDrawsAndCounts(t *testing.T) {
	run := func(types ...dot11.FrameType) (*fanOutWorld, Stats) {
		w := newFanOutWorld(types...)
		w.traffic(12 * time.Second)
		w.eng.RunAll()
		return w, w.m.Stats()
	}
	all, allStats := run()
	typed, typedStats := run(dot11.TypeBeacon, dot11.TypeData)
	if fmt.Sprint(typedStats) != fmt.Sprint(allStats) {
		t.Fatalf("typed receivers moved the counters:\n%+v\n%+v", typedStats, allStats)
	}
	var want []reception
	skipped := 0
	for _, r := range all.got {
		odd := (binary.BigEndian.Uint32(r.rx[2:])-1)%2 == 1
		if odd && r.typ != dot11.TypeBeacon && r.typ != dot11.TypeData {
			skipped++
			continue
		}
		want = append(want, r)
	}
	if skipped == 0 {
		t.Fatal("no reception was of an unhandled type; the test checks nothing")
	}
	if len(typed.got) != len(want) {
		t.Fatalf("typed run made %d calls, want %d", len(typed.got), len(want))
	}
	for i := range want {
		if typed.got[i] != want[i] {
			t.Fatalf("call %d = %+v, want %+v", i, typed.got[i], want[i])
		}
	}
}

// TestStillRadioReadsPositionOnce: a radio reads its position at every
// delivery until its still time, then once more, and keeps that point; a
// radio whose still time is sim.Infinity is never frozen.
func TestStillRadioReadsPositionOnce(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1))
	reads := 0
	counting := func() geo.Point { reads++; return geo.Point{X: float64(reads)} }
	parks := m.NewRadio(dot11.MAC(1), counting, time.Second)
	moving := m.NewRadio(dot11.MAC(2), func() geo.Point { return geo.Point{X: eng.Now().Seconds()} }, sim.Infinity)
	eng.Run(500 * time.Millisecond)
	parks.Position()
	parks.Position()
	if reads != 2 {
		t.Fatalf("before its still time the radio read its position %d times, want 2", reads)
	}
	eng.Run(time.Second)
	p := parks.Position()
	for i := 0; i < 3; i++ {
		if q := parks.Position(); q != p {
			t.Fatalf("still radio moved from %v to %v", p, q)
		}
	}
	if reads != 3 {
		t.Fatalf("still radio read its position %d times, want 3", reads)
	}
	eng.Run(5 * time.Second)
	if got := moving.Position(); got != (geo.Point{X: 5}) {
		t.Fatalf("moving radio at %v after 5 s, want (5, 0)", got)
	}
}
