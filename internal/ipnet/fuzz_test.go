package ipnet

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Decode, which sees the body of every
// data frame read back from a capture file. It must never panic, and any
// image it accepts must re-encode to exactly the same bytes. The seed
// corpus in testdata/fuzz/FuzzDecode holds each packet kind the stack
// sends (TCP SYN, data segment and pure ACK, ICMP echo request and reply,
// UDP carrying DHCP), truncations at each layer, trailing bytes, a nonzero
// TCP payload byte and an unknown protocol. The seeds stay short: the
// fuzzer's minimizer costs the square of an input's length, and a
// full-size segment kept it minimizing for most of a 30 s run.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		if re := p.AppendTo(nil); !bytes.Equal(re, data) {
			t.Fatalf("Decode accepted % x but re-encodes to % x", data, re)
		}
		if p.WireLen() != len(data) {
			t.Fatalf("WireLen %d for a %d-byte image", p.WireLen(), len(data))
		}
	})
}
