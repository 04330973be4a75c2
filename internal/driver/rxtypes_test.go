package driver

import (
	"fmt"
	"testing"
	"time"

	"spider/internal/dot11"
	"spider/internal/ipnet"
	"spider/internal/phy"
)

// TestUnhandledFrameTypesLeaveStateUnchanged hands onFrame one frame of
// every type outside rxTypes, addressed to the driver by the AP it is
// associated with. The medium never makes these calls, so onFrame must
// ignore them: otherwise the list would hide frames the switch handles.
func TestUnhandledFrameTypesLeaveStateUnchanged(t *testing.T) {
	r := newRig(t, Config{ProbeInterval: -1})
	a := r.addAP(dot11.Channel1, 1)
	r.drv.SetSchedule([]Slot{{Channel: dot11.Channel1}})
	r.run(100 * time.Millisecond)
	vifs := r.drv.VIFs()
	if !joinVIF(t, r, vifs[0], a.BSSID(), dot11.Channel1, 5*time.Second) {
		t.Fatal("join failed")
	}
	updates, packets := 0, 0
	r.drv.OnScanUpdate = func() { updates++ }
	vifs[0].OnPacket = func(ipnet.Packet) { packets++ }
	snapshot := func() string {
		s := fmt.Sprintf("%+v %+v", r.drv.ScanTable(), r.drv.Stats())
		for _, v := range vifs {
			s += fmt.Sprintf(" %d/%v/%v/%d/%d", v.state, v.bssid, v.channel, v.AuthAttempts, v.AssocAttempts)
		}
		return s
	}
	before := snapshot()

	handled := map[dot11.FrameType]bool{}
	for _, ft := range rxTypes {
		handled[ft] = true
	}
	body := (&dot11.BeaconBody{SSID: "other"}).AppendTo(nil)
	pkt := ipnet.Packet{Proto: ipnet.ProtoTCP, TTL: ipnet.DefaultTTL, TCP: ipnet.TCP{Flags: ipnet.TCPAck, Payload: 100}}
	fed := 0
	for ft := dot11.TypeBeacon; ft.Valid(); ft++ {
		if handled[ft] {
			continue
		}
		for _, to := range []dot11.MACAddr{r.drv.MAC(), dot11.Broadcast} {
			f := dot11.Frame{Type: ft, Addr1: to, Addr2: a.BSSID(), Addr3: a.BSSID(), Body: body, Packet: pkt}
			r.drv.onFrame(&f, phy.RxInfo{Channel: dot11.Channel1, Distance: 3, At: r.eng.Now() + time.Second})
			fed++
		}
	}
	if fed == 0 {
		t.Fatal("rxTypes lists every frame type; nothing to check")
	}
	if after := snapshot(); after != before {
		t.Fatalf("unhandled frame types changed driver state:\nbefore %s\nafter  %s", before, after)
	}
	if updates != 0 || packets != 0 {
		t.Fatalf("unhandled frame types fired %d scan updates and %d packets", updates, packets)
	}
}
