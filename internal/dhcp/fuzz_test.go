package dhcp

import (
	"bytes"
	"testing"
)

// FuzzDecodeMessage feeds arbitrary bytes to DecodeMessage, which sees the
// UDP payload of every DHCP packet, including those read back from capture
// files. It must never panic, and any message it accepts must re-encode to
// exactly the same bytes. The seed corpus in testdata/fuzz/FuzzDecodeMessage
// holds one message per type, a truncation, a trailing byte and unknown
// types.
func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if re := m.AppendTo(nil); !bytes.Equal(re, data) {
			t.Fatalf("DecodeMessage accepted % x but re-encodes to % x", data, re)
		}
	})
}
