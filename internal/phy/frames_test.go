package phy

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"spider/internal/dot11"
	"spider/internal/ipnet"
	"spider/internal/sim"
)

// TestLossAtMatchesPow pins lossAt's squared-square fourth power to the
// math.Pow form it replaced, bit for bit, over a fine distance sweep that
// includes both ends of the range.
func TestLossAtMatchesPow(t *testing.T) {
	ref := func(d float64) float64 {
		if d >= txRange {
			return 1
		}
		return math.Pow(d/txRange, 4)
	}
	const steps = 100000
	for i := 0; i <= steps; i++ {
		d := txRange * float64(i) / steps
		if got, want := lossAt(d, 0), ref(d); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("lossAt(%v) = %v, math.Pow form %v", d, got, want)
		}
	}
}

// TestDeliveryMatchesTappedWire checks that carrying frame values is
// invisible to receivers: every frame a receiver gets equals the decode of
// the wire image the capture tap saw for that attempt — a broadcast, a
// unicast ping, a retransmitted DHCP packet, a retransmitted TCP segment
// and a collided broadcast — and RxInfo reports the log-distance RSSI of
// the true distance.
func TestDeliveryMatchesTappedWire(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1))
	m.collisionProb = 1 // any contender corrupts the attempt
	failNext := 0
	var taps [][]byte
	// The tap runs before an attempt's loss draw: a noise of 1 loses the
	// attempt it sees.
	m.SetTap(func(ch dot11.Channel, wire []byte, _ sim.Time) {
		taps = append(taps, append([]byte(nil), wire...))
		if failNext > 0 {
			failNext--
			m.SetChannelNoise(ch, 1)
		} else {
			m.SetChannelNoise(ch, 0)
		}
	})
	a := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	b := m.NewRadio(dot11.MAC(2), fixedPos(30, 0), 0)
	c := m.NewRadio(dot11.MAC(3), fixedPos(0, 60), 0)
	near := m.NewRadio(dot11.MAC(4), fixedPos(0.5, 0), 0) // inside the 1 m RSSI floor

	received, retries := 0, 0
	check := func(who string, dist float64) func(*dot11.Frame, RxInfo) {
		return func(f *dot11.Frame, info RxInfo) {
			received++
			want, err := dot11.Decode(taps[len(taps)-1])
			if err != nil {
				t.Fatalf("%s: tapped wire does not decode: %v", who, err)
			}
			if !bytes.Equal(f.Body, want.Body) {
				t.Fatalf("%s: body %q, tapped %q", who, f.Body, want.Body)
			}
			if cap(f.Body) != len(f.Body) {
				t.Fatalf("%s: body capacity %d exceeds its length %d", who, cap(f.Body), len(f.Body))
			}
			got := *f
			got.Body, want.Body = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: frame %+v, tapped %+v", who, got, want)
			}
			if got.Retry {
				retries++
			}
			if info.Distance != dist {
				t.Fatalf("%s: distance %v, want %v", who, info.Distance, dist)
			}
			if old := -30 - 35*math.Log10(math.Max(dist, 1)); info.RSSI() != old {
				t.Fatalf("%s: RSSI %v, log-distance model %v", who, info.RSSI(), old)
			}
		}
	}
	b.SetReceiver(check("b", 30))
	c.SetReceiver(check("c", 60))
	near.SetReceiver(check("near", 0.5))

	beacon := (&dot11.BeaconBody{SSID: "spider", BeaconInterval: 100}).AppendTo(make([]byte, 0, 64))
	a.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast, Addr3: a.MAC(), Seq: 1, Body: beacon}, nil)
	eng.RunAll()
	ping := ipnet.EchoRequestPacket(ipnet.AddrFrom4(10, 0, 0, 1), ipnet.AddrFrom4(10, 0, 0, 2), 1, 7)
	a.Send(dot11.Frame{Type: dot11.TypeData, Addr1: b.MAC(), Addr3: a.MAC(), Seq: 2, Packet: ping}, nil)
	eng.RunAll()
	failNext = 1 // the first attempt is lost, the retransmission gets through
	dhcp := ipnet.Packet{Proto: ipnet.ProtoUDP, TTL: ipnet.DefaultTTL, Dst: ipnet.BroadcastAddr,
		UDP: ipnet.UDP{SrcPort: ipnet.PortDHCPClient, DstPort: ipnet.PortDHCPServer, Payload: []byte("discover")}}
	a.Send(dot11.Frame{Type: dot11.TypeData, Addr1: b.MAC(), Addr3: a.MAC(), Seq: 3, PowerMgmt: true, Packet: dhcp}, nil)
	eng.RunAll()
	failNext = 1
	a.Send(dot11.Frame{Type: dot11.TypeData, Addr1: b.MAC(), Addr3: a.MAC(), Seq: 4, Packet: segment(1500)}, nil)
	eng.RunAll()
	// c commits while a's frame is still on the air, so c's probe collides.
	a.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast, Addr3: a.MAC(), Seq: 5, Body: beacon}, nil)
	c.Send(dot11.Frame{Type: dot11.TypeProbeReq, Addr1: dot11.Broadcast, Seq: 6}, nil)
	eng.RunAll()

	st := m.Stats()
	if len(taps) != 8 || st.FramesSent != 8 {
		t.Fatalf("tapped %d attempts, %d sent; want 8", len(taps), st.FramesSent)
	}
	// b, c and near hear both clean beacons; b the ping and both
	// retransmissions.
	if received != 9 || st.FramesDelivered != 9 {
		t.Fatalf("received %d, delivered %d; want 9", received, st.FramesDelivered)
	}
	if retries != 2 || st.Collisions != 1 {
		t.Fatalf("retries %d, collisions %d; want 2 and 1", retries, st.Collisions)
	}
	last, err := dot11.Decode(taps[len(taps)-1])
	if err != nil || last.Type != dot11.TypeProbeReq {
		t.Fatalf("collided attempt not tapped: %+v, %v", last, err)
	}
}

// TestReceiverMaySendDuringDelivery: a receiver that transmits from its
// callback does not disturb the frame later receivers of the same
// transmission see, because the job holding that frame is recycled only
// after delivery.
func TestReceiverMaySendDuringDelivery(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, sim.NewRNG(1))
	a := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	b := m.NewRadio(dot11.MAC(2), fixedPos(10, 0), 0)
	c := m.NewRadio(dot11.MAC(3), fixedPos(20, 0), 0)
	b.SetReceiver(func(f *dot11.Frame, _ RxInfo) {
		if f.Addr2 == a.MAC() {
			b.Send(dot11.Frame{Type: dot11.TypeProbeReq, Addr1: dot11.Broadcast, Seq: 9}, nil)
		}
	})
	var got []dot11.Frame
	c.SetReceiver(func(f *dot11.Frame, _ RxInfo) { got = append(got, *f) })
	a.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast, Addr3: a.MAC(), Seq: 7}, nil)
	eng.RunAll()
	if len(got) != 2 || got[0].Addr2 != a.MAC() || got[0].Seq != 7 || got[1].Addr2 != b.MAC() || got[1].Seq != 9 {
		t.Fatalf("c received %+v; want a's beacon, then b's probe", got)
	}
}

// TestSendPanicsOnUnknownType: Send rejects a frame type the codec does
// not know, so no receiver or tap ever sees one.
func TestSendPanicsOnUnknownType(t *testing.T) {
	m := NewMedium(sim.NewEngine(), sim.NewRNG(1))
	r := m.NewRadio(dot11.MAC(1), fixedPos(0, 0), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Send with an unknown frame type did not panic")
		}
	}()
	r.Send(dot11.Frame{Type: dot11.FrameType(200), Addr1: dot11.Broadcast}, nil)
}
