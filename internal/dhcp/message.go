// Package dhcp implements the DHCP join machinery whose timing dominates
// Spider's mobile performance: a wire-format message codec, a server with a
// configurable response-delay distribution (the paper's β ∈ [βmin, βmax]),
// and a client state machine with tunable retransmission timeouts and the
// per-BSSID cached-lease fast path the paper recommends.
package dhcp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"spider/internal/dot11"
	"spider/internal/ipnet"
)

// MessageType is the DHCP message kind.
type MessageType uint8

// The four-message happy path plus NAK.
const (
	Discover MessageType = iota + 1
	Offer
	Request
	Ack
	Nak
)

func (t MessageType) String() string {
	switch t {
	case Discover:
		return "discover"
	case Offer:
		return "offer"
	case Request:
		return "request"
	case Ack:
		return "ack"
	case Nak:
		return "nak"
	}
	return fmt.Sprintf("dhcp-type-%d", uint8(t))
}

// Message is a DHCP message. YourIP is the address being offered or
// acknowledged; ServerIP doubles as the gateway address in this simulation.
type Message struct {
	Type      MessageType
	XID       uint32
	ClientMAC dot11.MACAddr
	YourIP    ipnet.Addr
	ServerIP  ipnet.Addr
	LeaseSecs uint32
}

const messageLen = 1 + 4 + 6 + 4 + 4 + 4

// ErrShortMessage reports a truncated DHCP message.
var ErrShortMessage = errors.New("dhcp: message too short")

// ErrLongMessage reports bytes beyond a DHCP message's fixed fields.
var ErrLongMessage = errors.New("dhcp: trailing bytes after message")

// ErrBadType reports an unknown message type byte.
var ErrBadType = errors.New("dhcp: unknown message type")

// AppendTo serializes the message onto b.
func (m *Message) AppendTo(b []byte) []byte {
	b = append(b, byte(m.Type))
	b = binary.BigEndian.AppendUint32(b, m.XID)
	b = append(b, m.ClientMAC[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(m.YourIP))
	b = binary.BigEndian.AppendUint32(b, uint32(m.ServerIP))
	return binary.BigEndian.AppendUint32(b, m.LeaseSecs)
}

// Bytes serializes the message into a fresh buffer.
func (m *Message) Bytes() []byte { return m.AppendTo(make([]byte, 0, messageLen)) }

// DecodeMessage parses a serialized DHCP message, rejecting any image
// AppendTo would not produce.
func DecodeMessage(data []byte) (Message, error) {
	var m Message
	switch {
	case len(data) < messageLen:
		return m, ErrShortMessage
	case len(data) > messageLen:
		return m, ErrLongMessage
	}
	m.Type = MessageType(data[0])
	if m.Type < Discover || m.Type > Nak {
		return m, ErrBadType
	}
	m.XID = binary.BigEndian.Uint32(data[1:5])
	copy(m.ClientMAC[:], data[5:11])
	m.YourIP = ipnet.Addr(binary.BigEndian.Uint32(data[11:15]))
	m.ServerIP = ipnet.Addr(binary.BigEndian.Uint32(data[15:19]))
	m.LeaseSecs = binary.BigEndian.Uint32(data[19:23])
	return m, nil
}
