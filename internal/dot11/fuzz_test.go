package dot11

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the decoders, which only ever see
// frames read back from capture files. No decoder may panic, and any image
// Decode accepts must re-encode to exactly the same bytes. Decode builds a
// data frame's packet value, so the seed corpus in testdata/fuzz/FuzzDecode
// holds one valid frame per type, data frames carrying each packet kind
// the stack sends (data-*), a data frame whose body is not a packet image
// (data, data-truncated-packet), truncations, a flipped FCS bit, a reserved
// flag bit and unknown types.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err == nil {
			if re := fr.AppendTo(nil); !bytes.Equal(re, data) {
				t.Fatalf("Decode accepted % x but re-encodes to % x", data, re)
			}
			data = fr.Body
		}
		DecodeBeaconBody(data)
		DecodeAuthBody(data)
		DecodeAssocRespBody(data)
	})
}
