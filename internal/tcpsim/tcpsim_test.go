package tcpsim

import (
	"testing"
	"testing/quick"
	"time"

	"spider/internal/sim"
)

// pipe is a bidirectional test path with one-way delay, random loss, and a
// blockable forward direction (simulating channel absence).
type pipe struct {
	eng     *sim.Engine
	rng     *sim.RNG
	delay   sim.Time
	loss    float64
	blocked bool
}

func (p *pipe) dir(deliver func(Segment)) func(Segment) {
	return func(s Segment) {
		if p.blocked || p.rng.Bool(p.loss) {
			return
		}
		p.eng.Schedule(p.delay, func() { deliver(s) })
	}
}

// connect wires a sender and receiver through the pipe and returns them.
func connect(eng *sim.Engine, p *pipe, total int64, done func()) (*Sender, *Receiver) {
	var snd *Sender
	var rcv *Receiver
	rcv = NewReceiver(eng, p.dir(func(s Segment) { snd.Deliver(s) }), nil)
	snd = NewSender(eng, p.dir(func(s Segment) { rcv.Deliver(s) }), done)
	snd.Start(total)
	return snd, rcv
}

func TestLosslessTransferCompletes(t *testing.T) {
	eng := sim.NewEngine()
	p := &pipe{eng: eng, rng: sim.NewRNG(1), delay: 10 * time.Millisecond}
	doneAt := sim.Time(-1)
	const total = 1 << 20 // 1 MiB
	snd, rcv := connect(eng, p, total, func() { doneAt = eng.Now() })
	eng.Run(time.Minute)
	if snd.state != senderDone {
		t.Fatalf("flow not done: acked=%d timeouts=%d", snd.BytesAcked, snd.Timeouts)
	}
	if rcv.BytesReceived != total {
		t.Fatalf("received %d, want %d", rcv.BytesReceived, total)
	}
	if doneAt <= 0 {
		t.Fatal("done callback not fired")
	}
	if snd.Timeouts != 0 {
		t.Fatalf("timeouts = %d on lossless path", snd.Timeouts)
	}
}

func TestSlowStartGrowth(t *testing.T) {
	eng := sim.NewEngine()
	p := &pipe{eng: eng, rng: sim.NewRNG(1), delay: 50 * time.Millisecond}
	snd, _ := connect(eng, p, -1, nil)
	eng.Run(2 * time.Second)
	if snd.cwnd <= initCwnd {
		t.Fatalf("cwnd = %v, did not grow", snd.cwnd)
	}
	if snd.state != senderEstablished {
		t.Fatal("handshake failed")
	}
}

func TestLossyTransferRecovers(t *testing.T) {
	eng := sim.NewEngine()
	p := &pipe{eng: eng, rng: sim.NewRNG(7), delay: 10 * time.Millisecond, loss: 0.05}
	done := false
	snd, rcv := connect(eng, p, 1<<19, func() { done = true })
	eng.Run(5 * time.Minute)
	if !done {
		t.Fatalf("transfer did not complete: acked=%d rcv=%d", snd.BytesAcked, rcv.BytesReceived)
	}
	if rcv.BytesReceived != 1<<19 {
		t.Fatalf("received %d, want %d", rcv.BytesReceived, 1<<19)
	}
	if snd.FastRetransmits == 0 && snd.Timeouts == 0 {
		t.Fatal("5% loss produced no retransmissions at all")
	}
}

func TestBlackoutCausesTimeoutAndRecovery(t *testing.T) {
	eng := sim.NewEngine()
	p := &pipe{eng: eng, rng: sim.NewRNG(1), delay: 25 * time.Millisecond}
	snd, rcv := connect(eng, p, -1, nil)
	// Let it ramp up, then block the path for 3 s (≫ RTO).
	eng.Run(time.Second)
	preCwnd := snd.cwnd
	p.blocked = true
	eng.Run(4 * time.Second)
	if snd.Timeouts == 0 {
		t.Fatal("no RTO during 2s blackout")
	}
	if snd.cwnd != 1 {
		t.Fatalf("cwnd = %v during blackout, want 1", snd.cwnd)
	}
	if preCwnd <= 1 {
		t.Fatalf("pre-blackout cwnd = %v, expected ramp-up", preCwnd)
	}
	before := rcv.BytesReceived
	p.blocked = false
	eng.Run(9 * time.Second)
	if rcv.BytesReceived <= before {
		t.Fatal("transfer did not resume after blackout")
	}
}

func TestRTOBackoffGrows(t *testing.T) {
	eng := sim.NewEngine()
	p := &pipe{eng: eng, rng: sim.NewRNG(1), delay: 10 * time.Millisecond}
	snd, _ := connect(eng, p, -1, nil)
	eng.Run(time.Second)
	base := snd.rto
	p.blocked = true
	eng.Run(20 * time.Second)
	if snd.rto < 4*base {
		t.Fatalf("rto = %v after long blackout, want exponential backoff beyond %v", snd.rto, 4*base)
	}
	if snd.Timeouts < 3 {
		t.Fatalf("timeouts = %d, want >= 3", snd.Timeouts)
	}
}

func TestThroughputTracksPathDelay(t *testing.T) {
	// Throughput over a clean path should be far higher with a short RTT.
	measure := func(delay sim.Time) int64 {
		eng := sim.NewEngine()
		p := &pipe{eng: eng, rng: sim.NewRNG(1), delay: delay}
		_, rcv := connect(eng, p, -1, nil)
		eng.Run(5 * time.Second)
		return rcv.BytesReceived
	}
	fast := measure(5 * time.Millisecond)
	slow := measure(200 * time.Millisecond)
	if fast <= slow {
		t.Fatalf("fast path %d <= slow path %d", fast, slow)
	}
}

func TestReceiverOutOfOrder(t *testing.T) {
	eng := sim.NewEngine()
	var acks []uint32
	r := NewReceiver(eng, func(s Segment) { acks = append(acks, s.Ack) }, nil)
	r.Deliver(Segment{Flags: FlagSYN, Seq: 0})
	r.Deliver(Segment{Flags: FlagACK, Seq: 101, Payload: 100}) // out of order
	r.Deliver(Segment{Flags: FlagACK, Seq: 1, Payload: 100})   // fills the gap
	if r.rcvNxt != 201 {
		t.Fatalf("rcvNxt = %d, want 201", r.rcvNxt)
	}
	if r.BytesReceived != 200 {
		t.Fatalf("bytes = %d, want 200", r.BytesReceived)
	}
	// The out-of-order segment must have generated a duplicate ACK of 1.
	if acks[1] != 1 {
		t.Fatalf("acks = %v, want dup-ack 1 in position 1", acks)
	}
	if acks[2] != 201 {
		t.Fatalf("acks = %v, want cumulative 201 last", acks)
	}
}

func TestReceiverDuplicates(t *testing.T) {
	eng := sim.NewEngine()
	r := NewReceiver(eng, func(Segment) {}, nil)
	r.Deliver(Segment{Flags: FlagSYN, Seq: 0})
	seg := Segment{Flags: FlagACK, Seq: 1, Payload: 500}
	r.Deliver(seg)
	r.Deliver(seg)
	r.Deliver(seg)
	if r.BytesReceived != 500 {
		t.Fatalf("bytes = %d, want 500 (duplicates ignored)", r.BytesReceived)
	}
	if r.DupSegments != 2 {
		t.Fatalf("dups = %d, want 2", r.DupSegments)
	}
}

func TestReceiverIgnoresDataBeforeSYN(t *testing.T) {
	eng := sim.NewEngine()
	acked := 0
	r := NewReceiver(eng, func(Segment) { acked++ }, nil)
	r.Deliver(Segment{Flags: FlagACK, Seq: 1, Payload: 100})
	if r.BytesReceived != 0 || acked != 0 {
		t.Fatal("receiver consumed data before SYN")
	}
}

func TestSenderStopSilences(t *testing.T) {
	eng := sim.NewEngine()
	sent := 0
	s := NewSender(eng, func(Segment) { sent++ }, nil)
	s.Start(-1)
	s.Stop()
	before := sent
	s.Deliver(Segment{Flags: FlagACK, Ack: 1})
	eng.Run(time.Minute)
	if sent != before {
		t.Fatalf("sender transmitted after Stop (%d -> %d)", before, sent)
	}
}

func TestFiniteFlowExactBytes(t *testing.T) {
	// Totals that are not multiples of MSS must still complete exactly.
	for _, total := range []int64{1, 100, 1460, 1461, 14600, 99999} {
		eng := sim.NewEngine()
		p := &pipe{eng: eng, rng: sim.NewRNG(1), delay: time.Millisecond}
		done := false
		_, rcv := connect(eng, p, total, func() { done = true })
		eng.Run(time.Minute)
		if !done {
			t.Fatalf("total=%d: not done", total)
		}
		if rcv.BytesReceived != total {
			t.Fatalf("total=%d: received %d", total, rcv.BytesReceived)
		}
	}
}

func TestOnDataCallback(t *testing.T) {
	eng := sim.NewEngine()
	var got int
	r := NewReceiver(eng, func(Segment) {}, func(n int, at sim.Time) { got += n })
	r.Deliver(Segment{Flags: FlagSYN})
	r.Deliver(Segment{Flags: FlagACK, Seq: 1, Payload: 1000})
	if got != 1000 {
		t.Fatalf("onData saw %d bytes, want 1000", got)
	}
}

// Property: under arbitrary loss patterns, the receiver never counts more
// bytes than the sender has sent, and a finite flow that completes delivers
// exactly its size.
func TestPropertyConservation(t *testing.T) {
	f := func(seed int64, lossPct uint8) bool {
		loss := float64(lossPct%50) / 100
		eng := sim.NewEngine()
		p := &pipe{eng: eng, rng: sim.NewRNG(seed), delay: 5 * time.Millisecond, loss: loss}
		const total = 200000
		done := false
		snd, rcv := connect(eng, p, total, func() { done = true })
		eng.Run(3 * time.Minute)
		if rcv.BytesReceived > int64(snd.SegmentsSent)*int64(mss) {
			return false
		}
		if done && rcv.BytesReceived != total {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPerSegmentRTTSampling(t *testing.T) {
	// The estimator must absorb per-segment samples: after a burst of
	// segments with staggered ACK delays, RTO reflects the slow tail, not
	// just the fastest segment.
	eng := sim.NewEngine()
	var snd *Sender
	sent := 0
	snd = NewSender(eng, func(seg Segment) {
		if seg.Flags&FlagSYN != 0 {
			eng.Schedule(10*time.Millisecond, func() { snd.Deliver(Segment{Flags: FlagACK, Ack: 1}) })
			return
		}
		sent++
		// Later segments in a burst are acknowledged much later, like a
		// PSM-buffered flush.
		delay := time.Duration(sent) * 150 * time.Millisecond
		end := seg.Seq + uint32(seg.Payload)
		eng.Schedule(delay, func() { snd.Deliver(Segment{Flags: FlagACK, Ack: end}) })
	}, nil)
	snd.Start(-1)
	eng.Run(3 * time.Second)
	if snd.rto < 400*time.Millisecond {
		t.Fatalf("RTO = %v after staggered ACKs, want inflated by slow samples", snd.rto)
	}
	if snd.Timeouts != 0 {
		t.Fatalf("spurious timeouts: %d", snd.Timeouts)
	}
}

func TestSenderAccessors(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSender(eng, func(Segment) {}, nil)
	if s.state == senderEstablished || s.state == senderDone {
		t.Fatal("fresh sender claims progress")
	}
	if s.cwnd != initCwnd {
		t.Fatalf("initial cwnd = %v", s.cwnd)
	}
	if s.rto != initRTO {
		t.Fatalf("initial rto = %v", s.rto)
	}
}

func TestPacingCapsThroughput(t *testing.T) {
	// A lossless 1 Mbit/s-paced transfer over a fast pipe must take about
	// payload/rate, not the unpaced few RTTs.
	eng := sim.NewEngine()
	p := &pipe{eng: eng, rng: sim.NewRNG(1), delay: time.Millisecond}
	doneAt := sim.Time(-1)
	const total = 1 << 20 // 1 MiB
	snd, _ := connect(eng, p, total, func() { doneAt = eng.Now() })
	snd.SetPaceBps(1e6)
	eng.Run(time.Minute)
	if snd.state != senderDone {
		t.Fatal("paced transfer did not complete")
	}
	want := sim.Time(float64(total) * 8 / 1e6 * 1e9) // ~8.4 s
	if doneAt < want {
		t.Fatalf("finished at %v, faster than the %v pace allows", doneAt, want)
	}
	if doneAt > want+want/4 {
		t.Fatalf("finished at %v, far slower than the %v pace", doneAt, want)
	}
}

func TestPacingClearedMidFlow(t *testing.T) {
	// Removing the cap mid-flow must let the sender revert to window-limited
	// behaviour and finish quickly.
	eng := sim.NewEngine()
	p := &pipe{eng: eng, rng: sim.NewRNG(1), delay: time.Millisecond}
	doneAt := sim.Time(-1)
	const total = 1 << 20
	snd, _ := connect(eng, p, total, func() { doneAt = eng.Now() })
	snd.SetPaceBps(1e5) // would take ~84 s alone
	eng.Schedule(time.Second, func() { snd.SetPaceBps(0) })
	eng.Run(time.Minute)
	if snd.state != senderDone {
		t.Fatal("transfer did not complete after the cap was lifted")
	}
	if doneAt > sim.Time(5*time.Second) {
		t.Fatalf("finished at %v; cap removal did not take effect", doneAt)
	}
}

func TestPacingSetterSchedulesNothing(t *testing.T) {
	// The allocator re-paces idle senders in bulk; the setter must not
	// perturb the event timeline.
	eng := sim.NewEngine()
	snd := NewSender(eng, func(Segment) {}, nil)
	snd.SetPaceBps(5e6)
	snd.SetPaceBps(1e6)
	snd.SetPaceBps(0)
	if n := eng.Pending(); n != 0 {
		t.Fatalf("SetPaceBps scheduled %d events", n)
	}
}
