// Package tcpsim implements a compact Reno-style TCP sufficient to
// reproduce the transport dynamics the Spider paper measures: slow start,
// AIMD congestion avoidance, duplicate-ACK fast retransmit, and
// retransmission timeouts with exponential backoff. Channel absences longer
// than the RTO stall a connection and collapse its window — the effect
// behind the paper's Figures 7, 8, and 10.
package tcpsim

import "spider/internal/ipnet"

// Segment is a TCP segment as the sender and receiver exchange it: flags,
// sequence numbers and a payload length. It is the ipnet.TCP header, so a
// segment rides inside an ipnet.Packet, and through every frame, queue and
// buffer below it, as a value. Its payload is only a length: the zero
// bytes exist only in a wire image that a capture tap asks for.
type Segment = ipnet.TCP

// Segment flag bits.
const (
	FlagSYN = ipnet.TCPSyn
	FlagACK = ipnet.TCPAck
)
