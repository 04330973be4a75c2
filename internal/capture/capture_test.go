package capture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/ipnet"
	"spider/internal/phy"
	"spider/internal/sim"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	frames := [][]byte{
		[]byte("frame-one"),
		[]byte("frame-two-longer"),
		{},
	}
	for i, f := range frames {
		if err := w.WritePacket(sim.Time(i)*time.Second+1500*time.Microsecond, f); err != nil {
			t.Fatal(err)
		}
	}
	if w.count != 3 {
		t.Fatalf("count = %d", w.count)
	}
	pkts, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 3 {
		t.Fatalf("read %d packets", len(pkts))
	}
	for i, p := range pkts {
		if !bytes.Equal(p.Data, frames[i]) {
			t.Fatalf("packet %d data mismatch", i)
		}
		want := sim.Time(i)*time.Second + 1500*time.Microsecond
		if p.At != want {
			t.Fatalf("packet %d at %v, want %v", i, p.At, want)
		}
	}
}

func TestHeaderLayout(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()
	if len(hdr) != 24 {
		t.Fatalf("header len = %d", len(hdr))
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != 0xa1b2c3d4 {
		t.Fatal("wrong magic")
	}
	if binary.LittleEndian.Uint16(hdr[4:6]) != 2 || binary.LittleEndian.Uint16(hdr[6:8]) != 4 {
		t.Fatal("wrong version")
	}
	if binary.LittleEndian.Uint32(hdr[20:24]) != LinkType {
		t.Fatal("wrong link type")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err != ErrBadMagic {
		t.Fatalf("garbage header: %v", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	hdr := fileHeader()
	hdr[20] = 1 // LINKTYPE_ETHERNET
	if _, err := NewReader(bytes.NewReader(hdr[:])); err != ErrBadHeader {
		t.Fatalf("foreign link type: %v", err)
	}
	// Record headers a Writer never produces: a microsecond field past one
	// second, and an original length beyond the captured one.
	for _, field := range []int{4, 12} {
		var buf bytes.Buffer
		if err := NewWriter(&buf).WritePacket(0, []byte("abc")); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		binary.LittleEndian.PutUint32(raw[24+field:], 1e6)
		if _, err := ReadAll(bytes.NewReader(raw)); err != ErrBadRecord {
			t.Fatalf("record field at %d: %v", field, err)
		}
	}
}

// failOnce is an io.Writer whose first Write fails.
type failOnce struct {
	bytes.Buffer
	failed bool
}

func (f *failOnce) Write(p []byte) (int, error) {
	if !f.failed {
		f.failed = true
		return 0, errors.New("disk full")
	}
	return f.Buffer.Write(p)
}

// TestHeaderRetriedAfterFailedWrite: a file header whose write failed is
// written again before the next record, so no record lands in a capture
// without one.
func TestHeaderRetriedAfterFailedWrite(t *testing.T) {
	var out failOnce
	w := NewWriter(&out)
	if err := w.WritePacket(0, []byte("lost")); err == nil {
		t.Fatal("failed header write reported no error")
	}
	if err := w.WritePacket(time.Second, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	pkts, err := ReadAll(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 1 || string(pkts[0].Data) != "kept" || w.count != 1 {
		t.Fatalf("read %d packets (%+v), count %d; want the one written after the failure", len(pkts), pkts, w.count)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(0, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	r, err := NewReader(bytes.NewReader(raw[:len(raw)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != ErrTruncated {
		t.Fatalf("truncated record: %v", err)
	}
}

func TestNilWriterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWriter(nil) did not panic")
		}
	}()
	NewWriter(nil)
}

// TestMediumTapCapturesFrames exercises the end-to-end path: a radio
// transmits, the medium tap feeds the Writer, and the capture decodes back
// to valid dot11 frames.
func TestMediumTapCapturesFrames(t *testing.T) {
	eng := sim.NewEngine()
	medium := phy.NewMedium(eng, sim.NewRNG(1))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	medium.SetTap(func(_ dot11.Channel, wire []byte, at sim.Time) {
		if err := w.WritePacket(at, wire); err != nil {
			t.Fatal(err)
		}
	})
	tx := medium.NewRadio(dot11.MAC(1), func() geo.Point { return geo.Point{} }, 0)
	rx := medium.NewRadio(dot11.MAC(2), func() geo.Point { return geo.Point{X: 5} }, 0)
	rx.SetReceiver(func(*dot11.Frame, phy.RxInfo) {})
	tx.Send(dot11.Frame{Type: dot11.TypeBeacon, Addr1: dot11.Broadcast, Addr3: dot11.MAC(1)}, nil)
	tx.Send(dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(2),
		Packet: ipnet.Packet{Proto: ipnet.ProtoUDP, UDP: ipnet.UDP{Payload: []byte("payload")}}}, nil)
	eng.Run(time.Second)

	pkts, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 2 {
		t.Fatalf("captured %d frames, want 2", len(pkts))
	}
	types := []dot11.FrameType{dot11.TypeBeacon, dot11.TypeData}
	for i, p := range pkts {
		f, err := dot11.Decode(p.Data)
		if err != nil {
			t.Fatalf("captured frame %d does not decode: %v", i, err)
		}
		if f.Type != types[i] {
			t.Fatalf("frame %d type = %v, want %v", i, f.Type, types[i])
		}
		if p.At <= 0 {
			t.Fatalf("frame %d timestamp %v", i, p.At)
		}
	}
}

// Property: any sequence of frames round-trips with microsecond-truncated
// timestamps.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(payloads [][]byte, usecs []uint32) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		n := len(payloads)
		if len(usecs) < n {
			n = len(usecs)
		}
		for i := 0; i < n; i++ {
			at := sim.Time(usecs[i]) * time.Microsecond
			if err := w.WritePacket(at, payloads[i]); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		pkts, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil || len(pkts) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(pkts[i].Data, payloads[i]) {
				return false
			}
			if pkts[i].At != sim.Time(usecs[i])*time.Microsecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
