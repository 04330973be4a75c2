package ipnet

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddrString(t *testing.T) {
	a := AddrFrom4(192, 168, 1, 42)
	if a.String() != "192.168.1.42" {
		t.Fatalf("String = %q", a.String())
	}
	if !Unspecified.IsUnspecified() {
		t.Fatal("Unspecified not unspecified")
	}
	if a.IsUnspecified() {
		t.Fatal("real address reported unspecified")
	}
	if BroadcastAddr.String() != "255.255.255.255" {
		t.Fatalf("broadcast = %q", BroadcastAddr.String())
	}
}

func TestProtocolString(t *testing.T) {
	cases := map[Protocol]string{ProtoICMP: "icmp", ProtoTCP: "tcp", ProtoUDP: "udp", Protocol(99): "proto-99"}
	for p, want := range cases {
		if p.String() != want {
			t.Fatalf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

// samePacket compares packets field by field; a UDP payload compares by
// content, so an empty payload matches whether nil or not.
func samePacket(a, b Packet) bool {
	ua, ub := a.UDP.Payload, b.UDP.Payload
	a.UDP.Payload, b.UDP.Payload = nil, nil
	return reflect.DeepEqual(a, b) && bytes.Equal(ua, ub)
}

// roundTrip encodes p, checks the image against WireLen, and decodes it.
func roundTrip(t *testing.T, p Packet) Packet {
	t.Helper()
	wire := p.AppendTo(nil)
	if len(wire) != p.WireLen() {
		t.Fatalf("%+v: wire len %d, WireLen %d", p, len(wire), p.WireLen())
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("%+v: %v", p, err)
	}
	if !samePacket(got, p) {
		t.Fatalf("round trip %+v != %+v", got, p)
	}
	return got
}

// image builds a packet image with p's header fields, a length field
// claiming n payload bytes, and body.
func image(p Packet, n int, body ...byte) []byte {
	b := binary.BigEndian.AppendUint16(p.AppendTo(nil)[:headerLen-2], uint16(n))
	return append(b, body...)
}

func TestPacketRoundTrip(t *testing.T) {
	roundTrip(t, Packet{Proto: ProtoTCP, TTL: 64, Src: AddrFrom4(10, 0, 0, 1), Dst: AddrFrom4(10, 0, 0, 2),
		TCP: TCP{Flags: TCPAck, Seq: 1, Payload: 7}})
}

func TestPacketDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err != ErrShortPacket {
		t.Fatalf("short header: %v", err)
	}
	p := Packet{Proto: ProtoUDP, UDP: UDP{Payload: []byte("abcdef")}}
	wire := p.AppendTo(nil)
	if _, err := Decode(wire[:len(wire)-1]); err != ErrShortPacket {
		t.Fatalf("truncated payload: %v", err)
	}
	if _, err := Decode(append(wire, 0)); err != ErrMalformed {
		t.Fatalf("trailing byte: %v", err)
	}
	unknown := append([]byte(nil), wire...)
	unknown[0] = 99
	if _, err := Decode(unknown); err != ErrMalformed {
		t.Fatalf("unknown protocol: %v", err)
	}
	seg := Packet{Proto: ProtoTCP, TCP: TCP{Payload: 4}}
	wire = seg.AppendTo(nil)
	wire[len(wire)-1] = 1
	if _, err := Decode(wire); err != ErrMalformed {
		t.Fatalf("nonzero tcp payload: %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	s := TCP{Flags: TCPAck | TCPSyn, Seq: 1234, Ack: 5678, Payload: 321}
	roundTrip(t, Packet{Proto: ProtoTCP, TCP: s})
	// An IP header whose length admits only part of the segment header,
	// then only part of its payload.
	p := Packet{Proto: ProtoTCP, TCP: TCP{Payload: 100}}
	wire := p.AppendTo(nil)
	for _, n := range []int{2, tcpHeaderLen + 99} {
		if _, err := Decode(image(p, n, wire[headerLen:headerLen+n]...)); err != ErrShortPacket {
			t.Fatalf("%d segment bytes: %v", n, err)
		}
	}
}

func TestEchoRoundTrip(t *testing.T) {
	req := EchoRequestPacket(AddrFrom4(10, 0, 0, 9), AddrFrom4(10, 0, 0, 1), 7, 42)
	if req.Proto != ProtoICMP {
		t.Fatalf("proto = %v", req.Proto)
	}
	e := roundTrip(t, req).Echo
	if e.Type != ICMPEchoRequest || e.ID != 7 || e.Seq != 42 {
		t.Fatalf("echo = %+v", e)
	}
	rep := EchoReplyPacket(req)
	if rep.Src != req.Dst || rep.Dst != req.Src {
		t.Fatal("reply addressing wrong")
	}
	re := roundTrip(t, rep).Echo
	if re.Type != ICMPEchoReply || re.ID != 7 || re.Seq != 42 {
		t.Fatalf("reply echo = %+v", re)
	}
	if _, err := Decode(image(req, 1, ICMPEchoRequest)); err != ErrShortPacket {
		t.Fatalf("short echo: %v", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: PortDHCPClient, DstPort: PortDHCPServer, Payload: []byte("dhcp")}
	p := Packet{Proto: ProtoUDP, UDP: u}
	got := roundTrip(t, p).UDP
	if got.SrcPort != u.SrcPort || got.DstPort != u.DstPort || !bytes.Equal(got.Payload, u.Payload) {
		t.Fatalf("round trip %+v != %+v", got, u)
	}
	if _, err := Decode(image(p, 2, 0, 1)); err != ErrShortPacket {
		t.Fatalf("short: %v", err)
	}
	// The IP length admits one byte fewer than the datagram claims.
	wire := p.AppendTo(nil)
	if _, err := Decode(image(p, len(wire)-headerLen-1, wire[headerLen:len(wire)-1]...)); err != ErrShortPacket {
		t.Fatalf("truncated: %v", err)
	}
}

// Property: packets of every protocol round-trip, whatever their fields.
func TestPropertyPacketRoundTrip(t *testing.T) {
	f := func(kind, ttl uint8, src, dst uint32, flags uint8, seq, ack uint32, n uint16, payload []byte) bool {
		p := Packet{TTL: ttl, Src: Addr(src), Dst: Addr(dst)}
		switch kind % 3 {
		case 0:
			p.Proto, p.TCP = ProtoTCP, TCP{Flags: flags, Seq: seq, Ack: ack, Payload: int(n % 1500)}
		case 1:
			p.Proto, p.Echo = ProtoICMP, Echo{Type: flags, ID: uint16(seq), Seq: n}
		case 2:
			p.Proto, p.UDP = ProtoUDP, UDP{SrcPort: uint16(seq), DstPort: n, Payload: payload}
		}
		wire := p.AppendTo(nil)
		got, err := Decode(wire)
		return err == nil && len(wire) == p.WireLen() && samePacket(got, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: TCP headers round-trip for every payload length that fits.
func TestPropertyTCPRoundTrip(t *testing.T) {
	f := func(flags uint8, seq, ack uint32, pl uint16) bool {
		s := TCP{Flags: flags, Seq: seq, Ack: ack, Payload: int(pl % (0xffff - tcpHeaderLen + 1))}
		got, err := Decode((&Packet{Proto: ProtoTCP, TCP: s}).AppendTo(nil))
		return err == nil && got.TCP == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: addresses round-trip through dotted-quad formatting digits.
func TestPropertyAddrOctets(t *testing.T) {
	f := func(a, b, c, d byte) bool {
		addr := AddrFrom4(a, b, c, d)
		back := AddrFrom4(byte(addr>>24), byte(addr>>16), byte(addr>>8), byte(addr))
		return back == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
