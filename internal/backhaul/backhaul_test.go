package backhaul

import (
	"testing"
	"time"

	"spider/internal/ipnet"
	"spider/internal/sim"
)

// pkt returns a packet of n bytes after its 12-byte IP header: a TCP
// segment whose 11-byte header leaves n-11 payload bytes.
func pkt(n int) ipnet.Packet {
	return ipnet.Packet{Proto: ipnet.ProtoTCP, TCP: ipnet.TCP{Payload: n - 11}}
}

func TestDeliveryWithDelay(t *testing.T) {
	eng := sim.NewEngine()
	var at sim.Time = -1
	l := NewLink(eng, Config{Delay: 20 * time.Millisecond}, func(ipnet.Packet) { at = eng.Now() })
	l.Send(pkt(100))
	eng.RunAll()
	if at != 20*time.Millisecond {
		t.Fatalf("delivered at %v, want 20ms (rate unlimited)", at)
	}
}

func TestRateLimiting(t *testing.T) {
	eng := sim.NewEngine()
	var times []sim.Time
	// 1 Mbit/s; a 1250-byte packet costs 10 ms on the wire.
	l := NewLink(eng, Config{RateBps: 1e6}, func(ipnet.Packet) { times = append(times, eng.Now()) })
	p := pkt(1250 - 12) // ipnet header is 12 bytes
	l.Send(p)
	l.Send(p)
	l.Send(p)
	eng.RunAll()
	if len(times) != 3 {
		t.Fatalf("delivered %d, want 3", len(times))
	}
	for i, want := range []sim.Time{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		if times[i] != want {
			t.Fatalf("packet %d delivered at %v, want %v", i, times[i], want)
		}
	}
}

func TestDropTail(t *testing.T) {
	eng := sim.NewEngine()
	delivered := 0
	l := NewLink(eng, Config{RateBps: 1e6}, func(ipnet.Packet) { delivered++ })
	for i := 0; i < 4*queueLimit; i++ {
		l.Send(pkt(1000))
	}
	eng.RunAll()
	if delivered != queueLimit {
		t.Fatalf("delivered = %d, want %d (queue limit)", delivered, queueLimit)
	}
	if l.Dropped != 3*queueLimit {
		t.Fatalf("Dropped = %d, want %d", l.Dropped, 3*queueLimit)
	}
	if l.Sent != queueLimit {
		t.Fatalf("Sent = %d, want %d", l.Sent, queueLimit)
	}
}

func TestQueueDrainsOverTime(t *testing.T) {
	eng := sim.NewEngine()
	delivered := 0
	l := NewLink(eng, Config{RateBps: 1e6}, func(ipnet.Packet) { delivered++ })
	// Fill the queue now, and again after it drains (50 × 8 ms ≈ 0.4 s).
	fill := func() {
		for i := 0; i < queueLimit; i++ {
			l.Send(pkt(1000))
		}
	}
	fill()
	eng.ScheduleAt(time.Second, fill)
	eng.RunAll()
	if delivered != 2*queueLimit {
		t.Fatalf("delivered = %d, want %d", delivered, 2*queueLimit)
	}
	if l.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", l.Dropped)
	}
}

func TestThroughputMatchesRate(t *testing.T) {
	eng := sim.NewEngine()
	bytes := 0
	l := NewLink(eng, Config{RateBps: 2e6}, func(p ipnet.Packet) { bytes += p.WireLen() })
	// Keep the queue fed for one simulated second.
	feed := eng.Ticker(time.Millisecond, func() {
		for l.queued < 10 {
			l.Send(pkt(1488))
		}
	})
	eng.Run(time.Second)
	feed.Stop()
	eng.Run(2 * time.Second)
	got := float64(bytes*8) / 2 // bits over ~2s of draining+1s feed... measure loosely
	_ = got
	// With a saturated 2 Mbit/s link over the first second, at least
	// ~240 kB must have arrived in total.
	if bytes < 240000 {
		t.Fatalf("delivered %d bytes, want >= 240000", bytes)
	}
}

func TestNilDeliverPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLink(nil deliver) did not panic")
		}
	}()
	NewLink(sim.NewEngine(), Config{}, nil)
}

func TestBlackholeDropsAndRecovers(t *testing.T) {
	eng := sim.NewEngine()
	delivered := 0
	l := NewLink(eng, Config{Delay: time.Millisecond}, func(ipnet.Packet) { delivered++ })
	l.Send(pkt(100))
	l.SetBlackhole(true)
	if !l.blackhole {
		t.Fatal("not blackholed after SetBlackhole(true)")
	}
	l.Send(pkt(100))
	l.Send(pkt(100))
	l.SetBlackhole(false)
	l.Send(pkt(100))
	eng.RunAll()
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2 (blackholed sends dropped)", delivered)
	}
	if l.Blackholed != 2 {
		t.Fatalf("Blackholed = %d, want 2", l.Blackholed)
	}
	if l.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0 (blackhole is not queue drop)", l.Dropped)
	}
}

func TestBlackholeLeavesInFlightPackets(t *testing.T) {
	eng := sim.NewEngine()
	delivered := 0
	l := NewLink(eng, Config{Delay: 10 * time.Millisecond}, func(ipnet.Packet) { delivered++ })
	l.Send(pkt(100))
	// Blackhole lands while the packet is propagating: it still arrives.
	eng.ScheduleAt(5*time.Millisecond, func() { l.SetBlackhole(true) })
	eng.RunAll()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (in-flight packet survives)", delivered)
	}
}

func TestExtraDelayShiftsArrival(t *testing.T) {
	eng := sim.NewEngine()
	var times []sim.Time
	l := NewLink(eng, Config{Delay: 10 * time.Millisecond}, func(ipnet.Packet) { times = append(times, eng.Now()) })
	l.Send(pkt(100))
	l.SetExtraDelay(40 * time.Millisecond)
	if l.extra != 40*time.Millisecond {
		t.Fatalf("extra delay = %v", l.extra)
	}
	l.Send(pkt(100))
	l.SetExtraDelay(-time.Second) // clamps to zero, restoring base delay
	if l.extra != 0 {
		t.Fatalf("extra delay after negative set = %v, want 0", l.extra)
	}
	l.Send(pkt(100))
	eng.RunAll()
	// Arrival order: the two base-delay packets land at 10ms, the delayed
	// middle send at 50ms.
	want := []sim.Time{10 * time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("delivered %d, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("packet %d delivered at %v, want %v", i, times[i], want[i])
		}
	}
}
