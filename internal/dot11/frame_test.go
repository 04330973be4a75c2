package dot11

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
	"testing/quick"

	"spider/internal/ipnet"
)

func TestMACString(t *testing.T) {
	a := MAC(0x01020304)
	if got, want := a.String(), "02:00:01:02:03:04"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if !Broadcast.IsBroadcast() {
		t.Fatal("Broadcast.IsBroadcast() = false")
	}
	if a.IsBroadcast() {
		t.Fatal("unicast address reported as broadcast")
	}
}

func TestMACUnique(t *testing.T) {
	seen := map[MACAddr]bool{}
	for i := uint32(0); i < 1000; i++ {
		m := MAC(i)
		if seen[m] {
			t.Fatalf("MAC(%d) collides", i)
		}
		seen[m] = true
	}
}

func TestChannelValid(t *testing.T) {
	for _, c := range OrthogonalChannels {
		if !c.Valid() {
			t.Fatalf("%v not valid", c)
		}
	}
	if Channel(0).Valid() || Channel(15).Valid() {
		t.Fatal("out-of-range channel reported valid")
	}
	if Channel6.String() != "ch6" {
		t.Fatalf("String = %q", Channel6.String())
	}
}

// udp wraps body in a UDP packet, the data-frame body that carries
// arbitrary bytes.
func udp(body []byte) ipnet.Packet {
	return ipnet.Packet{Proto: ipnet.ProtoUDP, TTL: ipnet.DefaultTTL, UDP: ipnet.UDP{Payload: body}}
}

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{
		Type:      TypeData,
		Addr1:     MAC(1),
		Addr2:     MAC(2),
		Addr3:     MAC(3),
		Seq:       4711,
		PowerMgmt: true,
		MoreData:  true,
		Retry:     true,
		Packet:    udp([]byte("hello, 802.11")),
	}
	wire := f.AppendTo(nil)
	if len(wire) != f.WireLen() {
		t.Fatalf("wire len %d, WireLen %d", len(wire), f.WireLen())
	}
	g, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != f.Type || g.Addr1 != f.Addr1 || g.Addr2 != f.Addr2 ||
		g.Addr3 != f.Addr3 || g.Seq != f.Seq ||
		g.PowerMgmt != f.PowerMgmt || g.MoreData != f.MoreData || g.Retry != f.Retry {
		t.Fatalf("decoded %+v != original %+v", g, f)
	}
	if !bytes.Equal(g.Packet.UDP.Payload, f.Packet.UDP.Payload) {
		t.Fatalf("body %q != %q", g.Packet.UDP.Payload, f.Packet.UDP.Payload)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err != ErrShortFrame {
		t.Fatalf("nil: err = %v, want ErrShortFrame", err)
	}
	if _, err := Decode(make([]byte, headerLen)); err != ErrShortFrame {
		t.Fatalf("short: err = %v, want ErrShortFrame", err)
	}
	f := Frame{Type: TypeBeacon, Addr1: Broadcast, Addr2: MAC(1), Addr3: MAC(1)}
	wire := f.AppendTo(nil)
	wire[5] ^= 0xff // corrupt an address byte
	if _, err := Decode(wire); err != ErrBadFCS {
		t.Fatalf("corrupt: err = %v, want ErrBadFCS", err)
	}
	bad := Frame{Type: FrameType(200), Addr1: MAC(1)}
	if _, err := Decode(bad.AppendTo(nil)); err != ErrBadType {
		t.Fatalf("bad type: err = %v, want ErrBadType", err)
	}
	// A reserved flag bit under a valid FCS would not survive re-encoding.
	hdr := (&Frame{Type: TypeData, Addr1: MAC(1)}).AppendTo(nil)[:headerLen]
	hdr[1] |= 0x80
	wire = binary.BigEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if _, err := Decode(wire); err != ErrBadFlags {
		t.Fatalf("reserved flag: err = %v, want ErrBadFlags", err)
	}
}

func TestFrameTypeClasses(t *testing.T) {
	if FrameType(99).String() != "frame-type-99" {
		t.Fatalf("unknown type String = %q", FrameType(99).String())
	}
	for i := 0; i < 256; i++ {
		ft := FrameType(i)
		want := ft >= TypeBeacon && ft <= TypeAck
		if ft.Valid() != want {
			t.Fatalf("FrameType(%d).Valid() = %t", ft, ft.Valid())
		}
		if want && strings.HasPrefix(ft.String(), "frame-type-") {
			t.Fatalf("valid type %d has no name", ft)
		}
	}
}

func TestBeaconBodyRoundTrip(t *testing.T) {
	bb := BeaconBody{SSID: "townwifi", BeaconInterval: 100, Capabilities: 0x0401}
	got, err := DecodeBeaconBody(bb.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got != bb {
		t.Fatalf("round trip %+v != %+v", got, bb)
	}
	if _, err := DecodeBeaconBody([]byte{1, 2}); err != ErrShortBody {
		t.Fatalf("short body: %v", err)
	}
	// Truncated SSID.
	b := bb.AppendTo(nil)
	if _, err := DecodeBeaconBody(b[:len(b)-2]); err != ErrShortBody {
		t.Fatalf("truncated ssid: %v", err)
	}
}

func TestBeaconBodySSIDTooLong(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized SSID did not panic")
		}
	}()
	bb := BeaconBody{SSID: string(make([]byte, 33))}
	bb.AppendTo(nil)
}

func TestAuthBodyRoundTrip(t *testing.T) {
	ab := AuthBody{SeqNum: 2, Status: 0}
	got, err := DecodeAuthBody(ab.AppendTo(nil))
	if err != nil || got != ab {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	if _, err := DecodeAuthBody(nil); err != ErrShortBody {
		t.Fatalf("short: %v", err)
	}
}

func TestAssocRespBodyRoundTrip(t *testing.T) {
	ar := AssocRespBody{Status: 0, AID: 7}
	got, err := DecodeAssocRespBody(ar.AppendTo(nil))
	if err != nil || got != ar {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	if _, err := DecodeAssocRespBody([]byte{0}); err != ErrShortBody {
		t.Fatalf("short: %v", err)
	}
}

// Property: every frame round-trips through the wire format; a data
// frame carries the body bytes in a UDP packet.
func TestPropertyFrameRoundTrip(t *testing.T) {
	f := func(typ uint8, a1, a2, a3 uint32, seq uint16, pm, md, rt bool, body []byte) bool {
		ft := FrameType(typ%12) + 1
		orig := Frame{
			Type: ft, Addr1: MAC(a1), Addr2: MAC(a2), Addr3: MAC(a3),
			Seq: seq, PowerMgmt: pm, MoreData: md, Retry: rt, Body: body,
		}
		if ft == TypeData {
			orig.Body, orig.Packet = nil, udp(body)
		}
		wire := orig.AppendTo(nil)
		dec, err := Decode(wire)
		if err != nil || len(wire) != orig.WireLen() {
			return false
		}
		return dec.Type == orig.Type && dec.Addr1 == orig.Addr1 &&
			dec.Addr2 == orig.Addr2 && dec.Addr3 == orig.Addr3 &&
			dec.Seq == orig.Seq && dec.PowerMgmt == orig.PowerMgmt &&
			dec.MoreData == orig.MoreData && dec.Retry == orig.Retry &&
			bytes.Equal(dec.Body, orig.Body) && dec.Packet.TTL == orig.Packet.TTL &&
			bytes.Equal(dec.Packet.UDP.Payload, orig.Packet.UDP.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: single-bit corruption anywhere in the frame is detected by the
// FCS (CRC-32 detects all single-bit errors).
func TestPropertyFCSDetectsBitFlips(t *testing.T) {
	f := func(seed uint16, body []byte, pos uint16, bit uint8) bool {
		orig := Frame{Type: TypeData, Addr1: MAC(1), Addr2: MAC(2), Addr3: MAC(3), Seq: seed, Packet: udp(body)}
		wire := orig.AppendTo(nil)
		p := int(pos) % len(wire)
		wire[p] ^= 1 << (bit % 8)
		_, err := Decode(wire)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// segment is a full-size TCP data segment.
var segment = ipnet.Packet{Proto: ipnet.ProtoTCP, TTL: ipnet.DefaultTTL,
	TCP: ipnet.TCP{Flags: ipnet.TCPAck, Seq: 1, Payload: 1460}}

func BenchmarkFrameEncode(b *testing.B) {
	f := Frame{Type: TypeData, Addr1: MAC(1), Addr2: MAC(2), Addr3: MAC(3), Packet: segment}
	buf := make([]byte, 0, f.WireLen())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = f.AppendTo(buf[:0])
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	f := Frame{Type: TypeData, Addr1: MAC(1), Addr2: MAC(2), Addr3: MAC(3), Packet: segment}
	wire := f.AppendTo(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}
