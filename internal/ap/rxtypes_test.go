package ap

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"spider/internal/dhcp"
	"spider/internal/dot11"
	"spider/internal/ipnet"
	"spider/internal/phy"
)

// TestUnhandledFrameTypesLeaveStateUnchanged hands onFrame one frame of
// every type outside rxTypes, addressed to the AP by a station holding a
// lease. The medium never makes these calls, so onFrame must ignore them:
// no station, counter or reply may change.
func TestUnhandledFrameTypesLeaveStateUnchanged(t *testing.T) {
	w := newWorld(t, true)
	c := w.newClient(dot11.MAC(1))
	c.dhcpJoin(w, t)
	snapshot := func() string {
		macs := make([]dot11.MACAddr, 0, len(w.ap.stations))
		for mac := range w.ap.stations {
			macs = append(macs, mac)
		}
		sort.Slice(macs, func(i, j int) bool { return macs[i].String() < macs[j].String() })
		s := fmt.Sprintf("%+v", w.ap.Stats())
		for _, mac := range macs {
			s += fmt.Sprintf(" %+v", *w.ap.stations[mac])
		}
		return s
	}
	replies := func() int {
		n := 0
		for _, f := range c.got {
			if f.Type != dot11.TypeBeacon {
				n++
			}
		}
		return n
	}
	before, seen := snapshot(), replies()

	handled := map[dot11.FrameType]bool{}
	for _, ft := range rxTypes {
		handled[ft] = true
	}
	bssid := w.ap.BSSID()
	discover := dhcp.Message{Type: dhcp.Discover, XID: 78, ClientMAC: c.radio.MAC()}
	pkt := ipnet.Packet{Proto: ipnet.ProtoUDP, TTL: 64, Src: ipnet.Unspecified, Dst: ipnet.BroadcastAddr,
		UDP: ipnet.UDP{SrcPort: ipnet.PortDHCPClient, DstPort: ipnet.PortDHCPServer, Payload: discover.Bytes()}}
	body := (&dot11.AuthBody{SeqNum: 1}).AppendTo(nil)
	fed := 0
	for ft := dot11.TypeBeacon; ft.Valid(); ft++ {
		if handled[ft] {
			continue
		}
		for _, to := range []dot11.MACAddr{bssid, dot11.Broadcast} {
			f := dot11.Frame{Type: ft, Addr1: to, Addr2: c.radio.MAC(), Addr3: bssid, PowerMgmt: true, Body: body, Packet: pkt}
			w.ap.onFrame(&f, phy.RxInfo{Channel: dot11.Channel6, Distance: 10, At: w.eng.Now()})
			fed++
		}
	}
	if fed == 0 {
		t.Fatal("rxTypes lists every frame type; nothing to check")
	}
	w.eng.Run(w.eng.Now() + 100*time.Millisecond) // any scheduled reply goes out
	if after := snapshot(); after != before {
		t.Fatalf("unhandled frame types changed AP state:\nbefore %s\nafter  %s", before, after)
	}
	if n := replies(); n != seen {
		t.Fatalf("unhandled frame types drew %d replies", n-seen)
	}
}
