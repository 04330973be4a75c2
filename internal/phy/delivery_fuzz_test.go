package phy

import (
	"fmt"
	"testing"
	"time"

	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/sim"
)

// refDeliver is Medium.deliver as it stood before broadcast runs and the
// address index: every receiver on the channel is visited one by one, and
// a unicast's target is found by scanning the channel's list. FuzzDelivery
// runs each input on a medium that uses it and on one that does not.
func refDeliver(m *Medium, j *txJob) bool {
	src, ch, f, status := j.src, j.ch, &j.f, j.status
	if m.tap != nil {
		m.tapWire = f.AppendTo(m.tapWire[:0])
		m.tap(ch, m.tapWire, m.eng.Now())
	}
	if src.closed {
		return false
	}
	if j.collided {
		m.stats.Collisions++
	}
	if f.Addr1.IsBroadcast() {
		m.stats.Broadcasts++
		if j.collided {
			m.stats.FramesLost++
			if status != nil {
				status(true)
			}
			return false
		}
		srcPos, noise := src.Position(), m.noise[ch]
		var last geo.Point
		d, loss := -1.0, -1.0
		for _, rx := range m.byChannel[ch] {
			if rx == src || rx.closed || rx.switching || rx.down || rx.recv == nil {
				continue
			}
			if pos := rx.Position(); d < 0 || pos != last {
				last, d, loss = pos, pos.Distance(srcPos), -1
			}
			if d > txRange {
				continue
			}
			if loss < 0 {
				loss = lossAt(d, noise)
			}
			if m.rng.Bool(loss) {
				m.stats.FramesLost++
				continue
			}
			m.deliverTo(rx, f, ch, d)
		}
		if status != nil {
			status(true)
		}
		return false
	}

	var target *Radio
	for _, rx := range m.byChannel[ch] {
		if rx.mac == f.Addr1 && !rx.closed && !rx.switching && !rx.down {
			target = rx
			break
		}
	}
	ok := false
	if target != nil && !j.collided {
		d := target.Position().Distance(src.Position())
		if d <= txRange {
			p := 1 - lossAt(d, m.noise[ch])
			ok = m.rng.Bool(p * p)
			if ok && target.recv != nil {
				m.deliverTo(target, f, ch, d)
			}
		}
	}
	if ok {
		if status != nil {
			status(true)
		}
		return false
	}
	m.stats.FramesLost++
	if j.attempt < retryLimit && !src.closed && !src.switching && !src.down && src.channel == ch {
		f.Retry = true
		j.attempt++
		m.transmit(j)
		return true
	}
	m.stats.UnicastFailed++
	if status != nil {
		status(false)
	}
	return false
}

// Bounds on one FuzzDelivery input.
const (
	deliveryMaxRadios  = 32
	deliveryMaxOps     = 96
	deliveryMaxActions = 200 // state changes and sends made from receivers
)

// deliveryPoints are where radios sit, park or pass: the first two are
// 50 m apart, the third exactly at Range (100 m) from the first, and the
// last out of every other's range.
var deliveryPoints = [4]geo.Point{{}, {X: 30, Y: 40}, {X: 100}, {X: 600}}

// deliveryTypes maps a mask byte's bits to the frame types a receiver
// handles; a zero mask handles every type.
var deliveryTypes = [8]dot11.FrameType{dot11.TypeBeacon, dot11.TypeProbeReq, dot11.TypeProbeResp,
	dot11.TypeAuth, dot11.TypeData, dot11.TypeNullData, dot11.TypeDeauth, dot11.TypeAssocReq}

// deliveryEvent is one entry of a run's trace: a reception (radio
// receives) or a Send status (radio sent seq).
type deliveryEvent struct {
	status bool
	radio  int
	from   dot11.MACAddr
	typ    dot11.FrameType
	seq    uint16
	ok     bool
	info   RxInfo
}

// deliveryRig is one medium driven by a FuzzDelivery input.
type deliveryRig struct {
	eng     *sim.Engine
	m       *Medium
	radios  []*Radio
	calls   []int  // receptions per radio
	react   []byte // per radio: what its receiver does (see reactTo)
	actions int
	trace   []deliveryEvent
}

// newDeliveryRig decodes in into a medium, its radios and a schedule, and
// runs it to quiescence. With ref set the medium delivers through
// refDeliver.
//
// Layout: in[0] picks the physics (bits 0-1: a noise floor of 0, 0.25, 1
// or 0.1 on channels 1 and 6; bit 2 turns collisions off) and seeds the
// medium's stream, in[1] the radio count. Each radio takes four bytes: place and motion
// (bits 0-1 a point; bits 2-3 still from 0, still from 500 ms, parks at the
// point, or passes through it; bits 4-7 when it parks or passes), flags
// (bit 0 tuned to channel 6, bit 1 shares the previous radio's MAC, bit 2
// no receiver), a frame-type mask, and a reaction byte its receiver acts
// on. Then each four bytes (at, op, a, b) schedule one step, at×8 ms in.
func newDeliveryRig(in []byte, ref bool) *deliveryRig {
	byteAt := func(i int) byte {
		if i < len(in) {
			return in[i]
		}
		return 0
	}
	eng := sim.NewEngine()
	w := &deliveryRig{eng: eng, m: NewMedium(eng, sim.NewRNG(int64(byteAt(0))+1))}
	floor := [4]float64{0, 0.25, 1, 0.1}[byteAt(0)&3]
	w.m.SetChannelNoise(dot11.Channel1, floor)
	w.m.SetChannelNoise(dot11.Channel6, floor)
	if byteAt(0)&4 != 0 {
		w.m.collisionProb = 0
	}
	if ref {
		w.m.deliverJob = refDeliver
	}
	n := 2 + int(byteAt(1))%(deliveryMaxRadios-1)
	for i := 0; i < n; i++ {
		b := 2 + 4*i
		w.addRadio(byteAt(b), byteAt(b+1), byteAt(b+2), byteAt(b+3))
	}
	ops := in[min(len(in), 2+4*n):]
	for k := 0; k+4 <= len(ops) && k < 4*deliveryMaxOps; k += 4 {
		at, op, a, b := ops[k], ops[k+1], ops[k+2], ops[k+3]
		eng.ScheduleAt(sim.Time(at)*8*sim.Time(time.Millisecond), func() { w.step(op, a, b) })
	}
	eng.RunAll()
	return w
}

// addRadio registers a radio from its four layout bytes.
func (w *deliveryRig) addRadio(place, flags, mask, react byte) {
	i := len(w.radios)
	pt := deliveryPoints[place&3]
	when := sim.Time(place>>4) * 100 * sim.Time(time.Millisecond)
	var pos func() geo.Point
	var stillFrom sim.Time
	switch place >> 2 & 3 {
	case 0:
		pos = func() geo.Point { return pt }
	case 1:
		pos, stillFrom = func() geo.Point { return pt }, 500*sim.Time(time.Millisecond)
	case 2: // drives in along x and parks at pt at when
		pos = func() geo.Point {
			t := max(when-w.eng.Now(), 0)
			return geo.Point{X: pt.X + 20*t.Seconds(), Y: pt.Y}
		}
		stillFrom = when
	case 3: // passes through pt at when and never stops
		pos = func() geo.Point {
			return geo.Point{X: pt.X + 15*(w.eng.Now()-when).Seconds(), Y: pt.Y}
		}
		stillFrom = sim.Infinity
	}
	mac := dot11.MAC(uint32(1 + i))
	if flags&2 != 0 && i > 0 {
		mac = w.radios[i-1].MAC()
	}
	r := w.m.NewRadio(mac, pos, stillFrom)
	w.radios = append(w.radios, r)
	w.calls = append(w.calls, 0)
	w.react = append(w.react, react)
	if flags&4 == 0 {
		w.setReceiver(i, mask)
	}
	if flags&1 != 0 {
		r.SetChannel(dot11.Channel6, nil)
	}
}

// setReceiver gives radio i a receiver that logs each reception and then
// reacts to it.
func (w *deliveryRig) setReceiver(i int, mask byte) {
	var types []dot11.FrameType
	for bit, t := range deliveryTypes {
		if mask&(1<<bit) != 0 {
			types = append(types, t)
		}
	}
	w.radios[i].SetReceiver(func(f *dot11.Frame, info RxInfo) {
		w.trace = append(w.trace, deliveryEvent{radio: i, from: f.Addr2, typ: f.Type, seq: f.Seq, info: info})
		w.calls[i]++
		w.reactTo(i)
	}, types...)
}

// reactTo runs radio i's reaction byte c after a reception: on every
// (1+c%4)-th call, change code (c>>2)%8 on the radio 1+(c>>5) places
// after i.
func (w *deliveryRig) reactTo(i int) {
	c := w.react[i]
	if c == 0 || w.calls[i]%(1+int(c%4)) != 0 || w.actions >= deliveryMaxActions {
		return
	}
	w.actions++
	w.change((c>>2)%8, (i+1+int(c>>5))%len(w.radios), c)
}

// change applies state change code to radio k.
func (w *deliveryRig) change(code byte, k int, arg byte) {
	r := w.radios[k]
	switch code {
	case 0:
		r.SetDown(true)
	case 1:
		r.SetDown(false)
	case 2:
		r.Close()
	case 3:
		r.SetChannel(dot11.Channel6, nil)
	case 4:
		r.SetChannel(dot11.Channel1, nil)
	case 5:
		r.SetReceiver(nil)
	case 6:
		w.setReceiver(k, arg)
	case 7:
		w.send(k, dot11.Frame{Type: dot11.TypeProbeReq, Addr1: dot11.Broadcast})
	}
}

// send transmits f from radio k and logs its status.
func (w *deliveryRig) send(k int, f dot11.Frame) {
	r := w.radios[k]
	f.Seq = r.NextSeq()
	f.Addr3 = r.MAC()
	if f.Type == dot11.TypeData {
		f.Packet = segment(100 + 10*int(f.Seq%64))
	}
	seq := f.Seq
	r.Send(f, func(ok bool) {
		w.trace = append(w.trace, deliveryEvent{status: true, radio: k, seq: seq, ok: ok, info: RxInfo{At: w.eng.Now()}})
	})
}

// step runs one scheduled step.
func (w *deliveryRig) step(op, a, b byte) {
	n := len(w.radios)
	k := int(a) % n
	switch op % 8 {
	case 0, 7: // a broadcast; op 7 sends three at once, to contend
		types := [4]dot11.FrameType{dot11.TypeBeacon, dot11.TypeProbeReq, dot11.TypeProbeResp, dot11.TypeData}
		for s := 0; s < 1+2*int(op%8/7); s++ {
			w.send((k+s)%n, dot11.Frame{Type: types[(int(b)+s)%4], Addr1: dot11.Broadcast})
		}
	case 1: // a unicast to another radio's address
		t := dot11.TypeAuth
		if b&0x80 != 0 {
			t = dot11.TypeData
		}
		w.send(k, dot11.Frame{Type: t, Addr1: w.radios[int(b&0x7f)%n].MAC()})
	case 2: // a unicast to an address no radio has
		w.send(k, dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(1 << 20)})
	case 3:
		w.change(b%8, k, a)
	case 4: // a noise burst: 0, 0.5 or 1 on channel 1 or 6, in place of its floor
		ch := dot11.Channel1
		if a&1 != 0 {
			ch = dot11.Channel6
		}
		w.m.SetChannelNoise(ch, float64(b%3)/2)
	case 5: // register a radio mid-run
		if n < 2*deliveryMaxRadios {
			w.addRadio(b, a&2, a, 0)
		}
	case 6:
		w.setReceiver(k, b)
	}
}

// FuzzDelivery holds the medium's broadcast runs and address index to the
// per-radio loop and scan they replaced. Each input builds a layout of
// still clusters, parkers, movers and shared addresses with per-radio
// frame-type masks, then a schedule of broadcasts, unicasts, state
// changes, noise and registrations, and receivers that change other radios
// as they receive. Run on both media, it must give the same ordered trace
// of receptions and Send statuses, the same Stats and the same next draw
// from the medium's stream.
func FuzzDelivery(f *testing.F) {
	// Six radios at one point that handle beacons and data, the second
	// sharing the first's address, and one all-types radio 50 m away.
	// Probe requests from inside the crowd and from outside it are counted
	// whole (less the sender inside), a data frame to the shared address
	// reaches the first radio, and a member goes down between broadcasts.
	f.Add([]byte{0, 5,
		0, 0, 0x11, 0, 0, 2, 0x11, 0, 0, 0, 0x11, 0, 0, 0, 0x11, 0, 0, 0, 0x11, 0, 0, 0, 0x11, 0,
		1, 0, 0, 0,
		1, 0, 2, 1, 2, 0, 0, 1, 3, 1, 4, 0x80, 4, 3, 2, 0, 5, 0, 0, 1, 6, 0, 6, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		got, want := newDeliveryRig(in, false), newDeliveryRig(in, true)
		for i := range min(len(got.trace), len(want.trace)) {
			if got.trace[i] != want.trace[i] {
				t.Fatalf("trace entry %d = %+v, want %+v", i, got.trace[i], want.trace[i])
			}
		}
		if len(got.trace) != len(want.trace) {
			t.Fatalf("trace has %d entries, want %d", len(got.trace), len(want.trace))
		}
		if g, w := fmt.Sprint(got.m.Stats()), fmt.Sprint(want.m.Stats()); g != w {
			t.Fatalf("stats %s, want %s", g, w)
		}
		if g, w := got.m.rng.Int63(), want.m.rng.Int63(); g != w {
			t.Fatalf("next draw %d, want %d", g, w)
		}
	})
}
