package dot11

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"spider/internal/ipnet"
)

// FrameType identifies the management, control, or data frame subtype.
type FrameType uint8

// Frame subtypes used by the simulation. The values are stable wire
// constants, not the raw 802.11 type/subtype bit layout.
const (
	TypeBeacon FrameType = iota + 1
	TypeProbeReq
	TypeProbeResp
	TypeAuth
	TypeAuthResp
	TypeAssocReq
	TypeAssocResp
	TypeDeauth
	TypeData
	TypeNullData // data frame with no body, used to signal the PM bit
	TypePSPoll
	TypeAck
)

var frameTypeNames = [...]string{
	TypeBeacon:    "beacon",
	TypeProbeReq:  "probe-req",
	TypeProbeResp: "probe-resp",
	TypeAuth:      "auth",
	TypeAuthResp:  "auth-resp",
	TypeAssocReq:  "assoc-req",
	TypeAssocResp: "assoc-resp",
	TypeDeauth:    "deauth",
	TypeData:      "data",
	TypeNullData:  "null",
	TypePSPoll:    "ps-poll",
	TypeAck:       "ack",
}

func (t FrameType) String() string {
	if t.Valid() {
		return frameTypeNames[t]
	}
	return fmt.Sprintf("frame-type-%d", uint8(t))
}

// Valid reports whether t is one of the defined frame subtypes.
func (t FrameType) Valid() bool { return t >= TypeBeacon && t <= TypeAck }

// Frame control flag bits.
const (
	flagPowerMgmt = 1 << 0
	flagMoreData  = 1 << 1
	flagRetry     = 1 << 2
)

// headerLen is the serialized header length: 1 type + 1 flags + 3×6
// addresses + 2 sequence.
const headerLen = 1 + 1 + 18 + 2

// fcsLen is the length of the trailing CRC-32 frame check sequence.
const fcsLen = 4

// Frame is a single 802.11 MAC frame.
//
// Addr1 is the receiver, Addr2 the transmitter, and Addr3 the BSSID, per
// the usual infrastructure-mode convention. A data frame's body is its
// Packet, a typed value; every other frame's body is Body's bytes.
type Frame struct {
	Type      FrameType
	Addr1     MACAddr // receiver / destination
	Addr2     MACAddr // transmitter / source
	Addr3     MACAddr // BSSID
	Seq       uint16
	PowerMgmt bool         // PM bit: transmitter is entering power-save mode
	MoreData  bool         // AP has more buffered frames for the station
	Retry     bool         // MAC retransmission
	Body      []byte       // management body; nil on data frames
	Packet    ipnet.Packet // TypeData only
}

// WireLen returns the full serialized length in bytes, including the FCS.
// The PHY charges airtime for exactly this many bytes plus PHY preamble.
func (f *Frame) WireLen() int {
	n := len(f.Body)
	if f.Type == TypeData {
		n = f.Packet.WireLen()
	}
	return headerLen + n + fcsLen
}

// AppendTo serializes the frame (with FCS) onto b and returns the extended
// slice.
func (f *Frame) AppendTo(b []byte) []byte {
	start := len(b)
	var flags byte
	if f.PowerMgmt {
		flags |= flagPowerMgmt
	}
	if f.MoreData {
		flags |= flagMoreData
	}
	if f.Retry {
		flags |= flagRetry
	}
	b = append(b, byte(f.Type), flags)
	b = append(b, f.Addr1[:]...)
	b = append(b, f.Addr2[:]...)
	b = append(b, f.Addr3[:]...)
	b = binary.BigEndian.AppendUint16(b, f.Seq)
	if f.Type == TypeData {
		b = f.Packet.AppendTo(b)
	} else {
		b = append(b, f.Body...)
	}
	fcs := crc32.ChecksumIEEE(b[start:])
	return binary.BigEndian.AppendUint32(b, fcs)
}

// Decoding errors.
var (
	ErrShortFrame = errors.New("dot11: frame too short")
	ErrBadFCS     = errors.New("dot11: frame check sequence mismatch")
	ErrBadType    = errors.New("dot11: unknown frame type")
	ErrBadFlags   = errors.New("dot11: reserved frame control flag set")
)

// Decode parses a serialized frame, verifying the FCS and rejecting any
// image AppendTo would not produce. A data frame's body decodes into its
// Packet (an ipnet error reports a body that does not); any other frame's
// Body aliases data.
func Decode(data []byte) (Frame, error) {
	var f Frame
	if len(data) < headerLen+fcsLen {
		return f, ErrShortFrame
	}
	body := data[:len(data)-fcsLen]
	want := binary.BigEndian.Uint32(data[len(data)-fcsLen:])
	if crc32.ChecksumIEEE(body) != want {
		return f, ErrBadFCS
	}
	f.Type = FrameType(data[0])
	if !f.Type.Valid() {
		return f, ErrBadType
	}
	flags := data[1]
	if flags&^(flagPowerMgmt|flagMoreData|flagRetry) != 0 {
		return f, ErrBadFlags
	}
	f.PowerMgmt = flags&flagPowerMgmt != 0
	f.MoreData = flags&flagMoreData != 0
	f.Retry = flags&flagRetry != 0
	copy(f.Addr1[:], data[2:8])
	copy(f.Addr2[:], data[8:14])
	copy(f.Addr3[:], data[14:20])
	f.Seq = binary.BigEndian.Uint16(data[20:22])
	if f.Type != TypeData {
		f.Body = body[headerLen:]
		return f, nil
	}
	var err error
	f.Packet, err = ipnet.Decode(body[headerLen:])
	return f, err
}

func (f *Frame) String() string {
	return fmt.Sprintf("%s %s->%s bssid=%s seq=%d pm=%t len=%d",
		f.Type, f.Addr2, f.Addr1, f.Addr3, f.Seq, f.PowerMgmt, f.WireLen())
}
