// Package ipnet models the minimal IPv4 layer the simulation needs: 32-bit
// addresses, a compact packet header, the TCP segment header that tcpsim
// exchanges, ICMP echo for Spider's liveness probes, and a UDP header for
// DHCP.
package ipnet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Addr is an IPv4 address.
type Addr uint32

// Unspecified is the zero address 0.0.0.0, used by DHCP clients before they
// hold a lease.
const Unspecified Addr = 0

// BroadcastAddr is the limited broadcast address 255.255.255.255.
const BroadcastAddr Addr = 0xffffffff

// AddrFrom4 assembles an address from dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String formats the address in dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// IsUnspecified reports whether a is 0.0.0.0.
func (a Addr) IsUnspecified() bool { return a == Unspecified }

// Protocol is the IPv4 protocol number of a packet's payload.
type Protocol uint8

// Protocols used by the simulation.
const (
	ProtoICMP Protocol = 1
	ProtoTCP  Protocol = 6
	ProtoUDP  Protocol = 17
)

func (p Protocol) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	}
	return fmt.Sprintf("proto-%d", uint8(p))
}

// headerLen is the serialized IPv4-lite header length.
const headerLen = 1 + 1 + 4 + 4 + 2

// Packet is an IPv4-lite packet. Its payload is a typed value, not bytes:
// Proto selects which of TCP, Echo and UDP is meaningful. Packets travel
// the stack as values, through frames, queues and buffers, and only
// AppendTo turns one into bytes.
type Packet struct {
	Proto Protocol
	TTL   uint8
	Src   Addr
	Dst   Addr
	TCP   TCP  // ProtoTCP
	Echo  Echo // ProtoICMP
	UDP   UDP  // ProtoUDP
}

// DefaultTTL is the initial time-to-live for locally originated packets.
const DefaultTTL = 64

// Decoding errors.
var (
	// ErrShortPacket reports an image shorter than a header or a length
	// it declares, at any layer.
	ErrShortPacket = errors.New("ipnet: packet too short")
	// ErrMalformed reports an image AppendTo would not produce: an
	// unknown protocol, bytes beyond a declared length, or a TCP payload
	// that is not all zeros.
	ErrMalformed = errors.New("ipnet: malformed packet")
)

// payloadLen is the serialized length of the packet's protocol layer.
func (p *Packet) payloadLen() int {
	switch p.Proto {
	case ProtoTCP:
		return tcpHeaderLen + p.TCP.Payload
	case ProtoICMP:
		return echoLen
	case ProtoUDP:
		return udpHeaderLen + len(p.UDP.Payload)
	}
	return 0
}

// WireLen returns the serialized length in bytes.
func (p *Packet) WireLen() int { return headerLen + p.payloadLen() }

// AppendTo serializes the packet onto b.
func (p *Packet) AppendTo(b []byte) []byte {
	n := p.payloadLen()
	if n > 0xffff {
		panic("ipnet: payload exceeds 64KiB")
	}
	b = append(b, byte(p.Proto), p.TTL)
	b = binary.BigEndian.AppendUint32(b, uint32(p.Src))
	b = binary.BigEndian.AppendUint32(b, uint32(p.Dst))
	b = binary.BigEndian.AppendUint16(b, uint16(n))
	switch p.Proto {
	case ProtoTCP:
		b = p.TCP.appendTo(b)
	case ProtoICMP:
		b = p.Echo.appendTo(b)
	case ProtoUDP:
		b = p.UDP.appendTo(b)
	}
	return b
}

// Decode parses a serialized packet, rejecting any image AppendTo would
// not produce. A UDP payload aliases data.
func Decode(data []byte) (Packet, error) {
	var p Packet
	if len(data) < headerLen {
		return p, ErrShortPacket
	}
	p.Proto = Protocol(data[0])
	p.TTL = data[1]
	p.Src = Addr(binary.BigEndian.Uint32(data[2:6]))
	p.Dst = Addr(binary.BigEndian.Uint32(data[6:10]))
	if err := exactly(data, headerLen+int(binary.BigEndian.Uint16(data[10:12]))); err != nil {
		return p, err
	}
	var err error
	switch body := data[headerLen:]; p.Proto {
	case ProtoTCP:
		err = p.TCP.decode(body)
	case ProtoICMP:
		err = p.Echo.decode(body)
	case ProtoUDP:
		err = p.UDP.decode(body)
	default:
		err = ErrMalformed
	}
	return p, err
}

// exactly checks that data is n bytes long.
func exactly(data []byte, n int) error {
	switch {
	case len(data) < n:
		return ErrShortPacket
	case len(data) > n:
		return ErrMalformed
	}
	return nil
}

// TCP flag bits.
const (
	TCPSyn uint8 = 1 << 0
	TCPAck uint8 = 1 << 1
)

// TCP is a TCP segment. Its payload is synthetic: only the length
// travels, and AppendTo writes that many zero bytes, so lower layers
// charge the right airtime and serialization delay for bytes that no
// one stores.
type TCP struct {
	Flags   uint8
	Seq     uint32 // first payload byte
	Ack     uint32 // next expected byte (valid when TCPAck is set)
	Payload int    // payload length in bytes
}

const tcpHeaderLen = 1 + 4 + 4 + 2

func (s *TCP) appendTo(b []byte) []byte {
	if s.Payload < 0 {
		panic(fmt.Sprintf("ipnet: negative tcp payload length %d", s.Payload))
	}
	b = append(b, s.Flags)
	b = binary.BigEndian.AppendUint32(b, s.Seq)
	b = binary.BigEndian.AppendUint32(b, s.Ack)
	b = binary.BigEndian.AppendUint16(b, uint16(s.Payload))
	return append(b, make([]byte, s.Payload)...)
}

func (s *TCP) decode(data []byte) error {
	if len(data) < tcpHeaderLen {
		return ErrShortPacket
	}
	s.Flags = data[0]
	s.Seq = binary.BigEndian.Uint32(data[1:5])
	s.Ack = binary.BigEndian.Uint32(data[5:9])
	s.Payload = int(binary.BigEndian.Uint16(data[9:11]))
	if err := exactly(data, tcpHeaderLen+s.Payload); err != nil {
		return err
	}
	for _, c := range data[tcpHeaderLen:] {
		if c != 0 {
			return ErrMalformed
		}
	}
	return nil
}

// ICMP echo message types.
const (
	ICMPEchoRequest uint8 = 8
	ICMPEchoReply   uint8 = 0
)

// Echo is an ICMP echo request or reply.
type Echo struct {
	Type uint8 // ICMPEchoRequest or ICMPEchoReply
	ID   uint16
	Seq  uint16
}

const echoLen = 1 + 2 + 2

func (e *Echo) appendTo(b []byte) []byte {
	b = append(b, e.Type)
	b = binary.BigEndian.AppendUint16(b, e.ID)
	return binary.BigEndian.AppendUint16(b, e.Seq)
}

func (e *Echo) decode(data []byte) error {
	if err := exactly(data, echoLen); err != nil {
		return err
	}
	e.Type = data[0]
	e.ID = binary.BigEndian.Uint16(data[1:3])
	e.Seq = binary.BigEndian.Uint16(data[3:5])
	return nil
}

// EchoRequestPacket builds a ready-to-send ping packet.
func EchoRequestPacket(src, dst Addr, id, seq uint16) Packet {
	return Packet{Proto: ProtoICMP, TTL: DefaultTTL, Src: src, Dst: dst,
		Echo: Echo{Type: ICMPEchoRequest, ID: id, Seq: seq}}
}

// EchoReplyPacket builds the reply to a ping.
func EchoReplyPacket(req Packet) Packet {
	return Packet{Proto: ProtoICMP, TTL: DefaultTTL, Src: req.Dst, Dst: req.Src,
		Echo: Echo{Type: ICMPEchoReply, ID: req.Echo.ID, Seq: req.Echo.Seq}}
}

// UDP is a minimal UDP header plus payload.
type UDP struct {
	SrcPort uint16
	DstPort uint16
	Payload []byte
}

// Well-known ports used by the simulation.
const (
	PortDHCPServer uint16 = 67
	PortDHCPClient uint16 = 68
)

const udpHeaderLen = 2 + 2 + 2

func (u *UDP) appendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, u.SrcPort)
	b = binary.BigEndian.AppendUint16(b, u.DstPort)
	b = binary.BigEndian.AppendUint16(b, uint16(len(u.Payload)))
	return append(b, u.Payload...)
}

func (u *UDP) decode(data []byte) error {
	if len(data) < udpHeaderLen {
		return ErrShortPacket
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	if err := exactly(data, udpHeaderLen+int(binary.BigEndian.Uint16(data[4:6]))); err != nil {
		return err
	}
	u.Payload = data[udpHeaderLen:]
	return nil
}
