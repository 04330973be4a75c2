package tcpsim

import "spider/internal/sim"

// Receiver is the data-receiving half of a connection (the mobile client).
// It acknowledges cumulatively and buffers out-of-order segments, so
// duplicate deliveries — e.g. retransmissions flushed from an AP's
// power-save buffer — are absorbed correctly.
type Receiver struct {
	eng    *sim.Engine
	out    func(Segment)            // ACK path back to the sender
	onData func(n int, at sim.Time) // fresh in-order payload bytes

	synSeen bool
	rcvNxt  uint32
	ooo     map[uint32]int // seq -> payload length

	// Stats.
	BytesReceived int64 // cumulative in-order payload
	DupSegments   int
	AcksSent      int
}

// NewReceiver creates a receiver. out transmits ACKs toward the sender;
// onData (optional) observes every in-order payload delivery.
func NewReceiver(eng *sim.Engine, out func(Segment), onData func(n int, at sim.Time)) *Receiver {
	if out == nil {
		panic("tcpsim: NewReceiver with nil out")
	}
	return &Receiver{eng: eng, out: out, onData: onData, ooo: make(map[uint32]int)}
}

// Deliver feeds a segment from the sender into the receiver. Every data
// segment triggers an ACK (no delayed ACKs), mirroring the aggressive
// acking of the short-RTT paths in the paper's testbed.
func (r *Receiver) Deliver(seg Segment) {
	if seg.Flags&FlagSYN != 0 {
		if !r.synSeen {
			r.synSeen = true
			r.rcvNxt = seg.Seq + 1
		}
		r.ack()
		return
	}
	if !r.synSeen || seg.Payload == 0 {
		return
	}
	end := seg.Seq + uint32(seg.Payload)
	switch {
	case end <= r.rcvNxt:
		r.DupSegments++
	case seg.Seq > r.rcvNxt:
		r.ooo[seg.Seq] = seg.Payload
	default:
		fresh := int(end - r.rcvNxt)
		r.advance(end, fresh)
		// Drain any now-contiguous buffered segments.
		for {
			n, ok := r.ooo[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.ooo, r.rcvNxt)
			r.advance(r.rcvNxt+uint32(n), n)
		}
		// Garbage-collect stale buffered segments below rcvNxt.
		for s, n := range r.ooo {
			if s+uint32(n) <= r.rcvNxt {
				delete(r.ooo, s)
			}
		}
	}
	r.ack()
}

func (r *Receiver) advance(to uint32, fresh int) {
	r.rcvNxt = to
	r.BytesReceived += int64(fresh)
	if r.onData != nil {
		r.onData(fresh, r.eng.Now())
	}
}

func (r *Receiver) ack() {
	r.AcksSent++
	r.out(Segment{Flags: FlagACK, Ack: r.rcvNxt})
}
