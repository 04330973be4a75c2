package phy

import (
	"testing"
	"testing/quick"
	"time"

	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/ipnet"
	"spider/internal/sim"
)

func lossless() Params {
	p := Defaults()
	p.Loss = func(float64) float64 { return 0 }
	return p
}

func fixedPos(x, y float64) func() geo.Point {
	return func() geo.Point { return geo.Point{X: x, Y: y} }
}

// segment returns a TCP packet that serializes to n bytes: the body of an
// n-byte data frame.
func segment(n int) ipnet.Packet {
	p := ipnet.Packet{Proto: ipnet.ProtoTCP, TTL: ipnet.DefaultTTL, TCP: ipnet.TCP{Flags: ipnet.TCPAck}}
	p.TCP.Payload = n - p.WireLen()
	return p
}

func TestBroadcastDelivery(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1), lossless())
	tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	var got []dot11.Frame
	rx := m.NewRadio(dot11.MAC(2), fixedPos(50, 0), 0)
	rx.SetReceiver(func(f *dot11.Frame, _ RxInfo) { got = append(got, *f) })
	far := m.NewRadio(dot11.MAC(3), fixedPos(500, 0), 0)
	farGot := 0
	far.SetReceiver(func(*dot11.Frame, RxInfo) { farGot++ })

	tx.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast, Addr3: dot11.MAC(1)}, nil)
	eng.RunAll()
	if len(got) != 1 {
		t.Fatalf("in-range radio got %d frames, want 1", len(got))
	}
	if got[0].Type != dot11.TypeBeacon || got[0].Addr2 != dot11.MAC(1) {
		t.Fatalf("frame = %+v", got[0])
	}
	if farGot != 0 {
		t.Fatal("out-of-range radio received a frame")
	}
}

func TestUnicastDeliveryAndStatus(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1), lossless())
	tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	rx := m.NewRadio(dot11.MAC(2), fixedPos(10, 0), 0)
	delivered := 0
	rx.SetReceiver(func(f *dot11.Frame, info RxInfo) {
		delivered++
		if info.Channel != dot11.Channel1 {
			t.Errorf("rx channel = %v", info.Channel)
		}
		if info.RSSI() >= 0 {
			t.Errorf("rssi = %v, want negative dBm", info.RSSI())
		}
	})
	var ok *bool
	tx.Send(dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(2), Packet: segment(24)}, func(b bool) { ok = &b })
	eng.RunAll()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if ok == nil || !*ok {
		t.Fatal("status callback did not report success")
	}
}

func TestUnicastToAbsentStationFails(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1), lossless())
	tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	var ok *bool
	tx.Send(dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(99)}, func(b bool) { ok = &b })
	eng.RunAll()
	if ok == nil || *ok {
		t.Fatal("send to absent station should fail after retries")
	}
	st := m.Stats()
	if st.UnicastFailed != 1 {
		t.Fatalf("UnicastFailed = %d, want 1", st.UnicastFailed)
	}
	// Initial try + RetryLimit retries.
	if want := uint64(Defaults().RetryLimit + 1); st.FramesSent != want {
		t.Fatalf("FramesSent = %d, want %d", st.FramesSent, want)
	}
}

func TestChannelIsolation(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1), lossless())
	tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	rx := m.NewRadio(dot11.MAC(2), fixedPos(10, 0), 0)
	rx.SetChannel(dot11.Channel6, nil)
	eng.RunAll()
	got := 0
	rx.SetReceiver(func(*dot11.Frame, RxInfo) { got++ })
	tx.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast}, nil)
	eng.RunAll()
	if got != 0 {
		t.Fatal("frame crossed channels")
	}
}

func TestSetChannelLatencyAndCallback(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1), lossless())
	r := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	var doneAt sim.Time = -1
	r.SetChannel(dot11.Channel11, func() { doneAt = eng.Now() })
	if !r.Switching() {
		t.Fatal("radio not switching immediately after SetChannel")
	}
	eng.RunAll()
	if r.Channel() != dot11.Channel11 {
		t.Fatalf("channel = %v", r.Channel())
	}
	if doneAt != Defaults().SwitchLatency {
		t.Fatalf("switch completed at %v, want %v", doneAt, Defaults().SwitchLatency)
	}
	// Switching to the same channel is free.
	called := false
	r.SetChannel(dot11.Channel11, func() { called = true })
	if !called {
		t.Fatal("same-channel switch should complete synchronously")
	}
}

func TestSendWhileSwitchingFails(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1), lossless())
	r := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	r.SetChannel(dot11.Channel6, nil)
	var ok *bool
	r.Send(dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(2)}, func(b bool) { ok = &b })
	eng.RunAll()
	if ok == nil || *ok {
		t.Fatal("send during switch should fail")
	}
}

func TestReceiverMissesFramesWhileSwitching(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1), lossless())
	tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	rx := m.NewRadio(dot11.MAC(2), fixedPos(10, 0), 0)
	got := 0
	rx.SetReceiver(func(*dot11.Frame, RxInfo) { got++ })
	// Start a broadcast, then immediately put the receiver into a switch
	// that spans the delivery time.
	tx.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast}, nil)
	rx.SetChannel(dot11.Channel6, nil)
	eng.RunAll()
	if got != 0 {
		t.Fatal("radio received a frame mid-switch")
	}
}

func TestAirtimeSerialization(t *testing.T) {
	eng := sim.NewEngine()
	p := lossless()
	m := NewMedium(eng, sim.NewRNG(1), p)
	tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	rx := m.NewRadio(dot11.MAC(2), fixedPos(10, 0), 0)
	var times []sim.Time
	rx.SetReceiver(func(*dot11.Frame, RxInfo) { times = append(times, eng.Now()) })
	f := dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(2), Packet: segment(1460)}
	tx.Send(f, nil)
	tx.Send(f, nil)
	eng.RunAll()
	if len(times) != 2 {
		t.Fatalf("delivered %d, want 2", len(times))
	}
	air := m.Airtime(f.WireLen())
	if gap := times[1] - times[0]; gap < air {
		t.Fatalf("second frame delivered %v after first, want >= one airtime %v", gap, air)
	}
}

func TestAirtimeScalesWithSize(t *testing.T) {
	m := NewMedium(sim.NewEngine(), sim.NewRNG(1), Defaults())
	small := m.Airtime(100)
	big := m.Airtime(1500)
	if big <= small {
		t.Fatalf("airtime(1500)=%v <= airtime(100)=%v", big, small)
	}
	// 1500B at 11Mbps ≈ 1.09ms on top of fixed overhead.
	payload := big - Defaults().PerFrameOverhead
	if payload < time.Millisecond || payload > 2*time.Millisecond {
		t.Fatalf("payload airtime = %v, want ≈1.1ms", payload)
	}
}

func TestLossAtDistanceCurve(t *testing.T) {
	p := Defaults()
	top := p.maxRate()
	if l := p.lossAt(0, top); l != p.BaseLoss {
		t.Fatalf("loss(0) = %v, want BaseLoss", l)
	}
	if l := p.lossAt(p.Range, top); l != 1 {
		t.Fatalf("loss(Range) = %v, want 1", l)
	}
	if l := p.lossAt(p.Range*2, top); l != 1 {
		t.Fatalf("loss beyond range = %v, want 1", l)
	}
	prev := -1.0
	for d := 0.0; d <= p.Range; d += 5 {
		l := p.lossAt(d, top)
		if l < prev {
			t.Fatalf("loss not monotone at d=%v", d)
		}
		prev = l
	}
}

func TestLossLowerAtLowerRates(t *testing.T) {
	p := Defaults()
	d := 0.8 * p.Range
	hi := p.lossAt(d, 11e6)
	lo := p.lossAt(d, 1e6)
	if lo >= hi {
		t.Fatalf("loss at 1 Mbps (%v) not below loss at 11 Mbps (%v)", lo, hi)
	}
	// The hard range cutoff is rate-independent.
	if p.lossAt(p.Range, 1e6) != 1 {
		t.Fatal("low rate extended the hard range")
	}
}

func TestLossyDeliveryRate(t *testing.T) {
	eng := sim.NewEngine()
	p := Defaults()
	p.Loss = func(float64) float64 { return 0.5 }
	p.RetryLimit = 1
	m := NewMedium(eng, sim.NewRNG(42), p)
	tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	rx := m.NewRadio(dot11.MAC(2), fixedPos(10, 0), 0)
	rx.SetReceiver(func(*dot11.Frame, RxInfo) {})
	okCount := 0
	const n = 2000
	for i := 0; i < n; i++ {
		tx.Send(dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(2)}, func(b bool) {
			if b {
				okCount++
			}
		})
	}
	eng.RunAll()
	// Per try success = 0.25 (frame and ack each 0.5); with one retry,
	// p = 1-(0.75)^2 = 0.4375.
	frac := float64(okCount) / n
	if frac < 0.40 || frac > 0.48 {
		t.Fatalf("delivery fraction = %v, want ≈0.4375", frac)
	}
}

func TestCloseDetaches(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1), lossless())
	tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	rx := m.NewRadio(dot11.MAC(2), fixedPos(10, 0), 0)
	got := 0
	rx.SetReceiver(func(*dot11.Frame, RxInfo) { got++ })
	rx.Close()
	var ok *bool
	tx.Send(dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(2)}, func(b bool) { ok = &b })
	eng.RunAll()
	if got != 0 {
		t.Fatal("closed radio received a frame")
	}
	if ok == nil || *ok {
		t.Fatal("unicast to closed radio should fail")
	}
}

func TestMobilePositionSampledAtDelivery(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1), lossless())
	tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	// Receiver moves out of range as time passes: 1000 m/s along x.
	rx := m.NewRadio(dot11.MAC(2), func() geo.Point {
		return geo.Point{X: 1000 * eng.Now().Seconds(), Y: 0}
	}, sim.Infinity)
	got := 0
	rx.SetReceiver(func(*dot11.Frame, RxInfo) { got++ })
	tx.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast}, nil)
	eng.Run(50 * time.Millisecond)
	first := got
	// After 1 second the receiver is 1 km away; nothing should arrive.
	eng.ScheduleAt(time.Second, func() {
		tx.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast}, nil)
	})
	eng.RunAll()
	if first != 1 {
		t.Fatalf("first frame deliveries = %d, want 1", first)
	}
	if got != 1 {
		t.Fatalf("total deliveries = %d, want 1 (second frame out of range)", got)
	}
}

func TestInvalidChannelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetChannel(0) did not panic")
		}
	}()
	m := NewMedium(sim.NewEngine(), sim.NewRNG(1), Defaults())
	m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0).SetChannel(0, nil)
}

// Property: airtime is monotone in frame size and always positive.
func TestPropertyAirtimeMonotone(t *testing.T) {
	m := NewMedium(sim.NewEngine(), sim.NewRNG(1), Defaults())
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.Airtime(x) > 0 && m.Airtime(x) <= m.Airtime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: lossAt is within [0,1] for any distance and any base loss.
func TestPropertyLossBounded(t *testing.T) {
	f := func(d uint16, base uint8, rateIdx uint8) bool {
		p := Defaults()
		p.BaseLoss = float64(base) / 255
		rate := Dot11bRates[int(rateIdx)%len(Dot11bRates)]
		l := p.lossAt(float64(d), rate)
		return l >= 0 && l <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestARFDropsRateAtRangeEdge(t *testing.T) {
	eng := sim.NewEngine()
	p := Defaults() // rate adaptation on, distance loss model
	p.BaseLoss = 0  // isolate the distance term: ARF oscillates under a flat loss floor
	m := NewMedium(eng, sim.NewRNG(9), p)
	tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	near := m.NewRadio(dot11.MAC(2), fixedPos(5, 0), 0)
	near.SetReceiver(func(*dot11.Frame, RxInfo) {})
	edge := m.NewRadio(dot11.MAC(3), fixedPos(88, 0), 0)
	edge.SetReceiver(func(*dot11.Frame, RxInfo) {})
	for i := 0; i < 200; i++ {
		tx.Send(dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(2), Packet: segment(200)}, nil)
		tx.Send(dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(3), Packet: segment(200)}, nil)
		eng.Run(eng.Now() + 50*time.Millisecond)
	}
	if got := tx.CurrentRate(dot11.MAC(2)); got != 11e6 {
		t.Fatalf("near peer rate = %v, want 11 Mbps", got)
	}
	if got := tx.CurrentRate(dot11.MAC(3)); got >= 11e6 {
		t.Fatalf("edge peer rate = %v, want fallback below 11 Mbps", got)
	}
	if m.Stats().RateDowns == 0 {
		t.Fatal("no ARF downshifts recorded")
	}
}

func TestARFImprovesEdgeDelivery(t *testing.T) {
	// With adaptation on, edge delivery should beat fixed 11 Mbps.
	deliver := func(adapt bool) uint64 {
		eng := sim.NewEngine()
		p := Defaults()
		p.RateAdaptation = adapt
		m := NewMedium(eng, sim.NewRNG(4), p)
		tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
		rx := m.NewRadio(dot11.MAC(2), fixedPos(90, 0), 0)
		rx.SetReceiver(func(*dot11.Frame, RxInfo) {})
		for i := 0; i < 500; i++ {
			tx.Send(dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(2), Packet: segment(500)}, nil)
			eng.Run(eng.Now() + 20*time.Millisecond)
		}
		return m.Stats().FramesDelivered
	}
	with := deliver(true)
	without := deliver(false)
	if with <= without {
		t.Fatalf("ARF delivered %d <= fixed-rate %d at the range edge", with, without)
	}
}

func TestBroadcastUsesBasicRate(t *testing.T) {
	p := Defaults()
	if r := p.broadcastRate(); r != 2e6 {
		t.Fatalf("broadcast rate = %v, want 2 Mbps basic rate", r)
	}
	p.RateAdaptation = false
	if r := p.broadcastRate(); r != p.BitRate {
		t.Fatalf("broadcast rate without adaptation = %v, want BitRate", r)
	}
}

func TestChannelNoiseRaisesLossAndClears(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(7), lossless())
	tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	rx := m.NewRadio(dot11.MAC(2), fixedPos(10, 0), 0)
	rx.SetReceiver(func(*dot11.Frame, RxInfo) {})
	send := func(n int) int {
		ok := 0
		for i := 0; i < n; i++ {
			tx.Send(dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(2)}, func(b bool) {
				if b {
					ok++
				}
			})
		}
		eng.RunAll()
		return ok
	}
	if got := send(50); got != 50 {
		t.Fatalf("lossless baseline delivered %d/50", got)
	}
	m.SetChannelNoise(dot11.Channel1, 0.9)
	if m.ChannelNoise(dot11.Channel1) != 0.9 {
		t.Fatalf("ChannelNoise = %v", m.ChannelNoise(dot11.Channel1))
	}
	noisy := send(200)
	if noisy > 120 {
		t.Fatalf("delivered %d/200 under 0.9 noise, want far fewer", noisy)
	}
	// Other channels are unaffected.
	if m.ChannelNoise(dot11.Channel6) != 0 {
		t.Fatal("noise leaked to channel 6")
	}
	m.SetChannelNoise(dot11.Channel1, 0)
	if m.ChannelNoise(dot11.Channel1) != 0 {
		t.Fatal("noise not cleared")
	}
	if got := send(50); got != 50 {
		t.Fatalf("post-clear delivered %d/50", got)
	}
}

func TestChannelNoiseClamped(t *testing.T) {
	m := NewMedium(sim.NewEngine(), sim.NewRNG(1), Defaults())
	m.SetChannelNoise(dot11.Channel1, 2.5)
	if got := m.ChannelNoise(dot11.Channel1); got != 1 {
		t.Fatalf("noise = %v, want clamped to 1", got)
	}
	m.SetChannelNoise(dot11.Channel1, -3)
	if got := m.ChannelNoise(dot11.Channel1); got != 0 {
		t.Fatalf("noise = %v, want 0 after negative set", got)
	}
}

func TestRadioDownStopsTraffic(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1), lossless())
	tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	rx := m.NewRadio(dot11.MAC(2), fixedPos(10, 0), 0)
	got := 0
	rx.SetReceiver(func(*dot11.Frame, RxInfo) { got++ })

	rx.SetDown(true)
	if !rx.Down() {
		t.Fatal("Down() = false after SetDown(true)")
	}
	tx.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast}, nil)
	var uni *bool
	tx.Send(dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(2)}, func(b bool) { uni = &b })
	eng.RunAll()
	if got != 0 {
		t.Fatal("down radio received a frame")
	}
	if uni == nil || *uni {
		t.Fatal("unicast to down radio should fail")
	}

	// A down radio cannot transmit either.
	var sent *bool
	rx.Send(dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(1)}, func(b bool) { sent = &b })
	eng.RunAll()
	if sent == nil || *sent {
		t.Fatal("down radio transmitted")
	}

	// Coming back up restores both directions.
	rx.SetDown(false)
	tx.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast}, nil)
	eng.RunAll()
	if got != 1 {
		t.Fatalf("revived radio got %d frames, want 1", got)
	}
}

func TestRadioDownDuringChannelSwitch(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1), lossless())
	tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	tx.SetChannel(dot11.Channel6, nil)
	eng.RunAll()
	rx := m.NewRadio(dot11.MAC(2), fixedPos(10, 0), 0)
	got := 0
	rx.SetReceiver(func(*dot11.Frame, RxInfo) { got++ })
	// Go down mid-switch; when the switch completes the radio must not
	// re-index onto the new channel.
	rx.SetChannel(dot11.Channel6, nil)
	rx.SetDown(true)
	eng.RunAll()
	if rx.Channel() != dot11.Channel6 {
		t.Fatalf("channel = %v, want 6 (switch still completes)", rx.Channel())
	}
	tx.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast}, nil)
	eng.RunAll()
	if got != 0 {
		t.Fatal("down radio received on its post-switch channel")
	}
	rx.SetDown(false)
	tx.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast}, nil)
	eng.RunAll()
	if got != 1 {
		t.Fatalf("revived radio got %d frames on channel 6, want 1", got)
	}
}
