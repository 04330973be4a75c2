// Package capture records simulated 802.11 frames into the classic
// libpcap container format, the equivalent of running tcpdump next to the
// real Spider driver. A Writer streams records to any io.Writer; a Reader
// parses them back for assertions and offline analysis, and accepts
// exactly the files a Writer produces.
//
// Frames use the repository's compact 802.11 wire encoding (package
// dot11), not the full IEEE layout, so captures are written with the
// user-reserved link type LINKTYPE_USER0 (147).
package capture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"spider/internal/sim"
)

// LinkType is the pcap link-layer header type used for captures.
const LinkType uint32 = 147 // LINKTYPE_USER0

const (
	magicMicros  uint32 = 0xa1b2c3d4
	versionMajor uint16 = 2
	versionMinor uint16 = 4
	snapLen      uint32 = 65535
)

// Writer streams a pcap capture.
type Writer struct {
	w       io.Writer
	wroteHd bool
	count   int
}

// NewWriter creates a Writer over w. The file header is emitted lazily on
// the first packet (or explicitly via Flush on an empty capture).
func NewWriter(w io.Writer) *Writer {
	if w == nil {
		panic("capture: NewWriter with nil writer")
	}
	return &Writer{w: w}
}

// fileHeader is the 24-byte pcap file header every capture starts with.
func fileHeader() [24]byte {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:20], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkType)
	return hdr
}

// header writes the file header unless an earlier call wrote it. A failed
// write leaves it unwritten, so no record lands in a file without one.
func (w *Writer) header() error {
	if w.wroteHd {
		return nil
	}
	hdr := fileHeader()
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	w.wroteHd = true
	return nil
}

// Flush ensures the file header exists (useful for empty captures).
func (w *Writer) Flush() error { return w.header() }

// WritePacket appends one frame observed at virtual time at.
func (w *Writer) WritePacket(at sim.Time, data []byte) error {
	if err := w.header(); err != nil {
		return err
	}
	if len(data) > int(snapLen) {
		return fmt.Errorf("capture: frame of %d bytes exceeds snaplen", len(data))
	}
	var rec [16]byte
	usec := at.Microseconds()
	binary.LittleEndian.PutUint32(rec[0:4], uint32(usec/1e6))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(usec%1e6))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(data)))
	if _, err := w.w.Write(rec[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(data); err != nil {
		return err
	}
	w.count++
	return nil
}

// Packet is one parsed capture record.
type Packet struct {
	At   sim.Time
	Data []byte
}

// Reader parses a pcap capture produced by Writer.
type Reader struct {
	r io.Reader
}

// Parsing errors.
var (
	ErrBadMagic  = errors.New("capture: bad pcap magic")
	ErrBadHeader = errors.New("capture: pcap file header not written by this package")
	ErrBadRecord = errors.New("capture: malformed record header")
	ErrTruncated = errors.New("capture: truncated record")
)

// NewReader validates the file header and prepares to read records.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != magicMicros {
		return nil, ErrBadMagic
	}
	if hdr != fileHeader() {
		return nil, ErrBadHeader
	}
	return &Reader{r: r}, nil
}

// Next returns the next record, or io.EOF at a clean end of capture.
func (r *Reader) Next() (Packet, error) {
	var rec [16]byte
	if _, err := io.ReadFull(r.r, rec[:]); err != nil {
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		return Packet{}, ErrTruncated
	}
	sec := binary.LittleEndian.Uint32(rec[0:4])
	usec := binary.LittleEndian.Uint32(rec[4:8])
	n := binary.LittleEndian.Uint32(rec[8:12])
	// Writer never truncates a frame, so the original length equals the
	// captured one.
	if usec >= 1e6 || n > snapLen || binary.LittleEndian.Uint32(rec[12:16]) != n {
		return Packet{}, ErrBadRecord
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Packet{}, ErrTruncated
	}
	at := sim.Time(sec)*1e9 + sim.Time(usec)*1e3
	return Packet{At: at, Data: data}, nil
}

// ReadAll drains the capture.
func ReadAll(r io.Reader) ([]Packet, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []Packet
	for {
		p, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
}
