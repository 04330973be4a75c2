package capture

import (
	"bytes"
	"testing"

	"spider/internal/dot11"
)

// FuzzReadAll feeds arbitrary bytes to ReadAll, the reader of capture
// files, and every record it returns to dot11.Decode. Neither may panic. A
// capture ReadAll accepts must re-encode through a Writer to exactly the
// same bytes, and so must every frame Decode accepts. The seed corpus in
// testdata/fuzz/FuzzReadAll holds a capture of frames of every kind the
// stack sends, an empty capture, a foreign header, and truncated and
// malformed records.
func FuzzReadAll(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pkts, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		var re bytes.Buffer
		w := NewWriter(&re)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			if err := w.WritePacket(p.At, p.Data); err != nil {
				t.Fatal(err)
			}
			fr, err := dot11.Decode(p.Data)
			if err != nil {
				continue
			}
			if b := fr.AppendTo(nil); !bytes.Equal(b, p.Data) {
				t.Fatalf("dot11.Decode accepted % x but re-encodes to % x", p.Data, b)
			}
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("ReadAll accepted % x but re-encodes to % x", data, re.Bytes())
		}
	})
}
