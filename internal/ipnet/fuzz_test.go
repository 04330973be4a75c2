package ipnet

import (
	"bytes"
	"strings"
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

// FuzzParsePrefix feeds arbitrary strings to ParsePrefix, which reads the
// address plans in world specs. It must never panic. Anything it accepts
// must re-parse from its String form to the same prefix, and an input with
// no host bits set must already be that String form: one prefix has one
// spelling, so no sign, leading zero or octal reading slips through. The
// seed corpus in testdata/fuzz/FuzzParsePrefix holds canonical prefixes,
// host bits to mask, the /0 and /32 ends, and rejected spellings.
func FuzzParsePrefix(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePrefix(s)
		if err != nil {
			return
		}
		if q, err := ParsePrefix(p.String()); err != nil || q != p {
			t.Fatalf("ParsePrefix(%q) = %v, but its String re-parses to %v, %v", s, p, q, err)
		}
		addr, _, _ := strings.Cut(s, "/")
		host, err := ParsePrefix(addr + "/32")
		if err != nil {
			t.Fatalf("ParsePrefix accepted %q but not its address as a /32: %v", s, err)
		}
		if host.addr == p.addr && s != p.String() {
			t.Fatalf("ParsePrefix(%q) has no host bits but formats as %q", s, p)
		}
	})
}
