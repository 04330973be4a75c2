package phy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
	"time"

	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/ipnet"
	"spider/internal/sim"
)

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
	m := NewMedium(eng, sim.NewRNG(1))
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
	m := NewMedium(eng, sim.NewRNG(1))
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
	m := NewMedium(eng, sim.NewRNG(1))
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
	// Initial try + retryLimit retries.
	if want := uint64(retryLimit + 1); st.FramesSent != want {
		t.Fatalf("FramesSent = %d, want %d", st.FramesSent, want)
	}
}

func TestChannelIsolation(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1))
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
	m := NewMedium(eng, sim.NewRNG(1))
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
	if doneAt != SwitchLatency {
		t.Fatalf("switch completed at %v, want %v", doneAt, SwitchLatency)
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
	m := NewMedium(eng, sim.NewRNG(1))
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
	m := NewMedium(eng, sim.NewRNG(1))
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
	m := NewMedium(eng, sim.NewRNG(1))
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
	m := NewMedium(sim.NewEngine(), sim.NewRNG(1))
	small := m.Airtime(100)
	big := m.Airtime(1500)
	if big <= small {
		t.Fatalf("airtime(1500)=%v <= airtime(100)=%v", big, small)
	}
	// 1500B at 11Mbps ≈ 1.09ms on top of fixed overhead.
	payload := big - perFrameOverhead
	if payload < time.Millisecond || payload > 2*time.Millisecond {
		t.Fatalf("payload airtime = %v, want ≈1.1ms", payload)
	}
}

func TestLossAtDistanceCurve(t *testing.T) {
	if l := lossAt(0, 0); l != 0 {
		t.Fatalf("loss(0) = %v, want 0", l)
	}
	if l := lossAt(txRange, 0); l != 1 {
		t.Fatalf("loss(range) = %v, want 1", l)
	}
	if l := lossAt(txRange*2, 0); l != 1 {
		t.Fatalf("loss beyond range = %v, want 1", l)
	}
	prev := -1.0
	for d := 0.0; d <= txRange; d += 5 {
		l := lossAt(d, 0)
		if l < prev {
			t.Fatalf("loss not monotone at d=%v", d)
		}
		prev = l
	}
}

func TestLossyDeliveryRate(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(42))
	m.SetChannelNoise(dot11.Channel1, 0.5)
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
	// Per try success ≈ 0.25 (frame and ack each ≈0.5; the distance term
	// at 10 m is 1e-4); with three retries, p ≈ 1-(0.75)^4 ≈ 0.684.
	frac := float64(okCount) / n
	if frac < 0.645 || frac > 0.725 {
		t.Fatalf("delivery fraction = %v, want ≈0.684", frac)
	}
}

func TestCloseDetaches(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1))
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
	m := NewMedium(eng, sim.NewRNG(1))
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
	m := NewMedium(sim.NewEngine(), sim.NewRNG(1))
	m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0).SetChannel(0, nil)
}

// Property: airtime is monotone in frame size and always positive.
func TestPropertyAirtimeMonotone(t *testing.T) {
	m := NewMedium(sim.NewEngine(), sim.NewRNG(1))
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

// Property: lossAt is within [0,1] for any distance and any noise.
func TestPropertyLossBounded(t *testing.T) {
	f := func(d uint16, noise uint8) bool {
		l := lossAt(float64(d), float64(noise)/255)
		return l >= 0 && l <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPinnedRateModel is a cross-commit pin of ExpectedThroughput, bit for
// bit: the PF oracle and the decentralized policy both rank APs by it, so
// a change of one ULP can flip a tie. It hashes the rate at every
// centimetre from 0 to 120 m, and at the distance of every RSSI from -30
// to -110 dBm in 0.1 dB steps.
func TestPinnedRateModel(t *testing.T) {
	const want = "aa93ebcbade9c15224a82c27ee539012af4592bad18eb534ba6b2ba509df5dc3"
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for i := 0; i <= 12000; i++ {
		put(ExpectedThroughput(float64(i) / 100))
	}
	for i := 0; i <= 800; i++ {
		put(ExpectedThroughput(DistanceForRSSI(-30 - float64(i)/10)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("rate-model digest = %s, want %s", got, want)
	}
}

func TestChannelNoiseRaisesLossAndClears(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(7))
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
		t.Fatalf("noise-free baseline delivered %d/50", got)
	}
	m.SetChannelNoise(dot11.Channel1, 0.9)
	if m.noise[dot11.Channel1] != 0.9 {
		t.Fatalf("noise = %v", m.noise[dot11.Channel1])
	}
	noisy := send(200)
	if noisy > 120 {
		t.Fatalf("delivered %d/200 under 0.9 noise, want far fewer", noisy)
	}
	// Other channels are unaffected.
	if m.noise[dot11.Channel6] != 0 {
		t.Fatal("noise leaked to channel 6")
	}
	m.SetChannelNoise(dot11.Channel1, 0)
	if m.noise[dot11.Channel1] != 0 {
		t.Fatal("noise not cleared")
	}
	if got := send(50); got != 50 {
		t.Fatalf("post-clear delivered %d/50", got)
	}
}

func TestChannelNoiseClamped(t *testing.T) {
	m := NewMedium(sim.NewEngine(), sim.NewRNG(1))
	m.SetChannelNoise(dot11.Channel1, 2.5)
	if got := m.noise[dot11.Channel1]; got != 1 {
		t.Fatalf("noise = %v, want clamped to 1", got)
	}
	m.SetChannelNoise(dot11.Channel1, -3)
	if got := m.noise[dot11.Channel1]; got != 0 {
		t.Fatalf("noise = %v, want 0 after negative set", got)
	}
}

func TestRadioDownStopsTraffic(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1))
	tx := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	rx := m.NewRadio(dot11.MAC(2), fixedPos(10, 0), 0)
	got := 0
	rx.SetReceiver(func(*dot11.Frame, RxInfo) { got++ })

	rx.SetDown(true)
	if !rx.down {
		t.Fatal("radio not down after SetDown(true)")
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
	m := NewMedium(eng, sim.NewRNG(1))
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
