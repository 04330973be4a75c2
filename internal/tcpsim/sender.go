package tcpsim

import (
	"spider/internal/sim"
)

// The endpoints' constants match a mid-2000s Linux stack, which the
// paper's testbed ran.
const (
	// mss is the maximum segment payload in bytes.
	mss = 1460
	// initCwnd is the initial congestion window in segments.
	initCwnd = 2
	// initRTO is the retransmission timeout before any RTT sample.
	initRTO sim.Time = 1000 * 1000 * 1000 // 1 s
	// minRTO and maxRTO clamp the computed timeout.
	minRTO sim.Time = 200 * 1000 * 1000       // 200 ms
	maxRTO sim.Time = 60 * 1000 * 1000 * 1000 // 60 s
)

type senderState uint8

const (
	senderClosed senderState = iota
	senderSynSent
	senderEstablished
	senderDone
)

// Sender is the data-sending half of a connection (the wired server in the
// paper's experiments). It implements Reno congestion control.
type Sender struct {
	eng  *sim.Engine
	out  func(Segment)
	done func()

	state  senderState
	total  int64 // payload bytes to send; <0 means unbounded
	sndUna uint32
	sndNxt uint32

	cwnd     float64 // segments
	ssthresh float64
	dupAcks  int

	srtt, rttvar, rto sim.Time
	hasSample         bool
	// sendTimes holds each segment sent since the last Karn clear, in send
	// order. Sequence numbers only grow between clears, so the ends
	// increase and an ACK covers a prefix.
	sendTimes []sentSegment

	rtoTimer sim.Timer
	stopped  bool

	// Pacing: when paceBps > 0, data segments are released no faster than
	// the target rate. paceNext is when the token bucket next permits a
	// segment; paceTimer wakes sendData at that instant when the window
	// would otherwise allow more.
	paceBps   float64
	paceNext  sim.Time
	paceTimer sim.Timer

	// Stats for experiments.
	Timeouts        int
	FastRetransmits int
	SegmentsSent    int
	BytesAcked      int64

	// OnRTT, when non-nil, observes every accepted RTT sample (Karn-safe,
	// in sequence order) at the sim time it was folded — the telemetry
	// plane's per-window RTT sketch hangs off this.
	OnRTT func(at sim.Time, sample sim.Time)
}

// sentSegment records when the segment ending at end went out.
type sentSegment struct {
	end uint32
	at  sim.Time
}

// NewSender creates a sender. out transmits a segment toward the receiver;
// done (optional) fires once a finite flow is fully acknowledged.
func NewSender(eng *sim.Engine, out func(Segment), done func()) *Sender {
	if out == nil {
		panic("tcpsim: NewSender with nil out")
	}
	s := &Sender{
		eng:      eng,
		out:      out,
		done:     done,
		cwnd:     initCwnd,
		ssthresh: 64, // segments
		rto:      initRTO,
	}
	s.rtoTimer.Bind(eng, sim.Func(s.onRTO))
	s.paceTimer.Bind(eng, sim.Func(s.sendData))
	return s
}

// Start opens the connection and begins pushing totalBytes of payload
// (negative for an unbounded bulk flow).
func (s *Sender) Start(totalBytes int64) {
	if s.state != senderClosed {
		return
	}
	s.total = totalBytes
	s.state = senderSynSent
	s.out(Segment{Flags: FlagSYN, Seq: 0})
	s.SegmentsSent++
	s.armRTO()
}

// Stop abandons the connection; no further segments are sent.
func (s *Sender) Stop() {
	s.stopped = true
	s.rtoTimer.Stop()
	s.paceTimer.Stop()
}

// SetPaceBps caps the sender's payload release rate (the allocator's
// airtime-share enforcement); <= 0 removes the cap. Setting the rate only
// records it — no event is scheduled, so an allocator may re-pace any
// number of idle senders without perturbing the event timeline. Only when
// the sender was asleep on its own pace timer is that wakeup replaced by
// an immediate re-drive, since the stopped timer was its sole way
// forward.
func (s *Sender) SetPaceBps(bps float64) {
	if bps <= 0 {
		bps = 0
		s.paceNext = 0
	}
	s.paceBps = bps
	if s.paceTimer.Stop() {
		s.sendData()
	}
}

// armRTO (re)starts the retransmission timer; it moves in place on every
// ACK that leaves data in flight.
func (s *Sender) armRTO() { s.rtoTimer.Reset(s.rto) }

func (s *Sender) flight() uint32 { return s.sndNxt - s.sndUna }

// remaining returns payload bytes not yet assigned a sequence number.
func (s *Sender) remaining() int64 {
	if s.total < 0 {
		return 1 << 40
	}
	// Payload occupies sequence space [1, 1+total).
	sent := int64(s.sndNxt) - 1
	return s.total - sent
}

func (s *Sender) onRTO() {
	if s.stopped || s.state == senderDone || s.state == senderClosed {
		return
	}
	s.Timeouts++
	flightSeg := float64(s.flight()) / float64(mss)
	s.ssthresh = maxf(flightSeg/2, 2)
	s.cwnd = 1
	s.dupAcks = 0
	s.sendTimes = s.sendTimes[:0] // Karn: no samples across retransmits
	s.rto *= 2
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
	switch s.state {
	case senderSynSent:
		s.out(Segment{Flags: FlagSYN, Seq: 0})
		s.SegmentsSent++
	case senderEstablished:
		// Go-back-N: rewind and retransmit one segment.
		s.sndNxt = s.sndUna
		s.sendData()
	}
	s.armRTO()
}

// sendData pushes segments while the window allows.
func (s *Sender) sendData() {
	if s.state != senderEstablished || s.stopped {
		return
	}
	cwndBytes := uint32(s.cwnd * float64(mss))
	for s.flight() < cwndBytes {
		rem := s.remaining()
		if rem <= 0 {
			break
		}
		if s.paceBps > 0 {
			now := s.eng.Now()
			if s.paceNext > now {
				// Token bucket empty: wake exactly when it refills. One
				// timer, re-armed only while the window wants more data.
				if !s.paceTimer.Armed() {
					s.paceTimer.ResetAt(s.paceNext)
				}
				break
			}
		}
		n := mss
		if int64(n) > rem {
			n = int(rem)
		}
		if s.flight()+uint32(n) > cwndBytes && s.flight() > 0 {
			break
		}
		if s.paceBps > 0 {
			// No burst credit: an idle gap does not entitle a burst, so the
			// clock advances from now, not from the stale paceNext.
			now := s.eng.Now()
			if s.paceNext < now {
				s.paceNext = now
			}
			s.paceNext += sim.Time(float64(n) * 8 / s.paceBps * 1e9)
		}
		seg := Segment{Flags: FlagACK, Seq: s.sndNxt, Payload: n}
		s.sendTimes = append(s.sendTimes, sentSegment{s.sndNxt + uint32(n), s.eng.Now()})
		s.sndNxt += uint32(n)
		s.out(seg)
		s.SegmentsSent++
	}
	if s.flight() > 0 && !s.rtoTimer.Armed() {
		s.armRTO()
	}
}

// sampleRTT folds every newly acknowledged segment's round-trip into the
// estimator, like a timestamp-option stack. Per-segment sampling matters
// for channel-sliced schedules: ACKs for segments buffered across an
// absence carry large samples that keep the RTO above the absence length.
func (s *Sender) sampleRTT(ack uint32) {
	// Fold samples in sequence order: the estimator is an EWMA, so the
	// folding order changes srtt/rttvar. The FIFO is already in that
	// order, and the acknowledged segments are its head.
	n := 0
	for n < len(s.sendTimes) && s.sendTimes[n].end <= ack {
		s.addSample(s.eng.Now() - s.sendTimes[n].at)
		n++
	}
	if n > 0 {
		s.sendTimes = append(s.sendTimes[:0], s.sendTimes[n:]...)
	}
}

func (s *Sender) addSample(sample sim.Time) {
	if s.OnRTT != nil {
		s.OnRTT(s.eng.Now(), sample)
	}
	if !s.hasSample {
		s.hasSample = true
		s.srtt = sample
		s.rttvar = sample / 2
	} else {
		diff := s.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < minRTO {
		s.rto = minRTO
	}
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
}

// Deliver feeds an ACK from the receiver into the sender.
func (s *Sender) Deliver(seg Segment) {
	if s.stopped || seg.Flags&FlagACK == 0 {
		return
	}
	switch s.state {
	case senderSynSent:
		if seg.Ack >= 1 {
			s.state = senderEstablished
			s.sndUna, s.sndNxt = 1, 1
			s.rto = initRTO
			s.rtoTimer.Stop()
			s.sendData()
		}
	case senderEstablished:
		if seg.Ack > s.sndUna {
			acked := seg.Ack - s.sndUna
			s.BytesAcked += int64(acked)
			s.sndUna = seg.Ack
			if s.sndNxt < s.sndUna {
				// A late cumulative ACK can pass a go-back-N rewind point;
				// never leave sndNxt behind sndUna or flight() underflows.
				s.sndNxt = s.sndUna
			}
			s.dupAcks = 0
			s.sampleRTT(seg.Ack)
			// Window growth: slow start below ssthresh, else AIMD.
			if s.cwnd < s.ssthresh {
				s.cwnd += minf(1, float64(acked)/float64(mss))
			} else {
				s.cwnd += 1 / s.cwnd
			}
			if s.total >= 0 && int64(s.sndUna) >= s.total+1 {
				s.state = senderDone
				s.rtoTimer.Stop()
				s.paceTimer.Stop()
				if s.done != nil {
					s.done()
				}
				return
			}
			if s.flight() == 0 {
				s.rtoTimer.Stop()
			} else {
				s.armRTO()
			}
			s.sendData()
		} else if seg.Ack == s.sndUna && s.flight() > 0 {
			s.dupAcks++
			if s.dupAcks == 3 {
				// Fast retransmit + simplified fast recovery.
				s.FastRetransmits++
				flightSeg := float64(s.flight()) / float64(mss)
				s.ssthresh = maxf(flightSeg/2, 2)
				s.cwnd = s.ssthresh
				s.sendTimes = s.sendTimes[:0]
				n := mss
				if rem := s.remaining() + int64(s.flight()); int64(n) > rem {
					n = int(rem)
				}
				if n > 0 {
					s.out(Segment{Flags: FlagACK, Seq: s.sndUna, Payload: n})
					s.SegmentsSent++
				}
				s.armRTO()
			}
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
