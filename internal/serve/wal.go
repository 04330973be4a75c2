package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// walRecordLimit bounds one record's payload. Anything larger than this
// in the length header is corruption, not a big intent — treat it as a
// torn tail rather than attempting a gigabyte allocation.
const walRecordLimit = 16 << 20

// WAL is the write-ahead intent log: consecutive records of
//
//	[uint32 LE payload length][uint32 LE CRC-32 (IEEE) of payload][payload JSON]
//
// appended with one fsync per record, strictly before the intent is
// applied or acknowledged. The format is deliberately dumb: recovery
// needs to make exactly one decision — "is this record whole?" — and a
// failed check anywhere means everything from that offset on was never
// acknowledged, so truncating it loses nothing a client was promised.
type WAL struct {
	f    *os.File
	path string
	buf  []byte
}

// RecoveryInfo reports what OpenWAL found on disk.
type RecoveryInfo struct {
	// Records is the number of intact records recovered.
	Records int
	// TruncatedBytes is the size of the torn tail discarded (0 = clean).
	TruncatedBytes int64
}

// OpenWAL opens (creating if absent) the log at path, scans it, repairs
// a torn tail by truncating to the last intact record, and returns the
// recovered intents in append order. A torn tail is an expected artifact
// of dying mid-append — never an error. Genuine I/O errors are.
func OpenWAL(path string) (*WAL, []Intent, RecoveryInfo, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, RecoveryInfo{}, err
	}
	intents, good, info, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, RecoveryInfo{}, err
	}
	if info.TruncatedBytes > 0 {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, RecoveryInfo{}, fmt.Errorf("serve: truncating torn WAL tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, RecoveryInfo{}, err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, RecoveryInfo{}, err
	}
	return &WAL{f: f, path: path}, intents, info, nil
}

// scanWAL reads every intact record and reports the offset of the first
// byte that is not part of one.
func scanWAL(f io.ReadSeeker) (intents []Intent, good int64, info RecoveryInfo, err error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, info, err
	}
	if _, err = f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, info, err
	}
	r := io.Reader(f)
	var hdr [8]byte
	for good < size {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break // short header: torn
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > walRecordLimit || good+8+int64(n) > size {
			break // absurd length or runs past EOF: torn
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // bit rot or interleaved torn write
		}
		var in Intent
		if err := json.Unmarshal(payload, &in); err != nil {
			break // checksummed garbage can only come from our own bug,
			// but refusing to apply it beats crashing the daemon
		}
		intents = append(intents, in)
		good += 8 + int64(n)
		info.Records++
	}
	info.TruncatedBytes = size - good
	return intents, good, info, nil
}

// Append encodes, writes, and fsyncs one intent. The intent is durable
// when Append returns — the contract every acknowledgement rests on.
func (w *WAL) Append(in Intent) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return err
	}
	if len(payload) > walRecordLimit {
		return fmt.Errorf("serve: intent %d encodes to %d bytes (limit %d)", in.Seq, len(payload), walRecordLimit)
	}
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(payload)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(payload))
	w.buf = append(w.buf, payload...)
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close closes the underlying file.
func (w *WAL) Close() error { return w.f.Close() }
