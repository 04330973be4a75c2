package dot11_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"spider/internal/dhcp"
	"spider/internal/dot11"
	"spider/internal/ipnet"
	"spider/internal/sim"
	"spider/internal/tcpsim"
)

// stackPackets returns one packet of each kind the stack sends: the TCP
// segments of a short transfer between a tcpsim sender and receiver (SYN,
// data segments, pure ACKs), a ping and its reply, and a DHCP message of
// every type.
func stackPackets(t *testing.T) []ipnet.Packet {
	client, server := ipnet.AddrFrom4(10, 0, 0, 5), ipnet.AddrFrom4(203, 0, 0, 1)
	var out []ipnet.Packet
	tcp := func(src, dst ipnet.Addr, s tcpsim.Segment) {
		out = append(out, ipnet.Packet{Proto: ipnet.ProtoTCP, TTL: ipnet.DefaultTTL, Src: src, Dst: dst, TCP: s})
	}
	eng := sim.NewEngine()
	var snd *tcpsim.Sender
	var rcv *tcpsim.Receiver
	rcv = tcpsim.NewReceiver(eng, func(s tcpsim.Segment) {
		tcp(client, server, s)
		eng.Schedule(time.Millisecond, func() { snd.Deliver(s) })
	}, nil)
	snd = tcpsim.NewSender(eng, func(s tcpsim.Segment) {
		tcp(server, client, s)
		eng.Schedule(time.Millisecond, func() { rcv.Deliver(s) })
	}, nil)
	snd.Start(4000)
	eng.Run(time.Second)
	var syn, data, ack bool
	for _, p := range out {
		syn = syn || p.TCP.Flags&tcpsim.FlagSYN != 0
		data = data || p.TCP.Payload > 0
		ack = ack || p.TCP.Flags == tcpsim.FlagACK && p.TCP.Payload == 0
	}
	if !syn || !data || !ack {
		t.Fatalf("transfer sent no SYN (%t), data segment (%t) or pure ACK (%t)", syn, data, ack)
	}

	ping := ipnet.EchoRequestPacket(client, server, 3, 9)
	out = append(out, ping, ipnet.EchoReplyPacket(ping))
	for typ := dhcp.Discover; typ <= dhcp.Nak; typ++ {
		msg := dhcp.Message{Type: typ, XID: 0x5157, ClientMAC: dot11.MAC(5), YourIP: client, ServerIP: server, LeaseSecs: 600}
		out = append(out, ipnet.Packet{Proto: ipnet.ProtoUDP, TTL: ipnet.DefaultTTL, Src: server, Dst: client,
			UDP: ipnet.UDP{SrcPort: ipnet.PortDHCPServer, DstPort: ipnet.PortDHCPClient, Payload: msg.Bytes()}})
	}
	return out
}

// TestStackPacketsRoundTrip: every packet kind the stack sends serializes
// to exactly WireLen bytes and decodes back to the same value, alone and
// as the body of a data frame.
func TestStackPacketsRoundTrip(t *testing.T) {
	for _, p := range stackPackets(t) {
		wire := p.AppendTo(nil)
		if len(wire) != p.WireLen() {
			t.Fatalf("%+v: %d wire bytes, WireLen %d", p, len(wire), p.WireLen())
		}
		got, err := ipnet.Decode(wire)
		if err != nil || !reflect.DeepEqual(got, p) {
			t.Fatalf("packet %+v decodes to %+v, %v", p, got, err)
		}
		f := dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(1), Addr2: dot11.MAC(2), Addr3: dot11.MAC(2), Seq: 77, Packet: p}
		fw := f.AppendTo(nil)
		if len(fw) != f.WireLen() {
			t.Fatalf("%+v: %d frame bytes, WireLen %d", p, len(fw), f.WireLen())
		}
		if !bytes.Equal(fw[22:len(fw)-4], wire) { // between the MAC header and the FCS
			t.Fatalf("%+v: frame body is not the packet image", p)
		}
		gf, err := dot11.Decode(fw)
		if err != nil || !reflect.DeepEqual(gf, f) {
			t.Fatalf("frame %+v decodes to %+v, %v", f, gf, err)
		}
	}
}
