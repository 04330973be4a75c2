package ipnet

import (
	"encoding/json"
	"fmt"
	"testing"
)

func TestPrefixParseAndFormat(t *testing.T) {
	cases := []struct {
		in      string
		network string
		bits    int
	}{
		{"10.0.0.0/24", "10.0.0.0", 24},
		{"10.0.0.7/24", "10.0.0.0", 24},     // canonicalized to the base
		{"172.16.5.9/12", "172.16.0.0", 12}, // host bits masked off
		{"192.168.1.1/32", "192.168.1.1", 32},
	}
	for _, c := range cases {
		p, err := ParsePrefix(c.in)
		if err != nil {
			t.Fatalf("ParsePrefix(%q): %v", c.in, err)
		}
		if got := p.addr.String(); got != c.network {
			t.Errorf("ParsePrefix(%q) network = %s, want %s", c.in, got, c.network)
		}
		if p.bits != c.bits {
			t.Errorf("ParsePrefix(%q) bits = %d, want %d", c.in, p.bits, c.bits)
		}
		want := fmt.Sprintf("%s/%d", c.network, c.bits)
		if p.String() != want {
			t.Errorf("String() = %s, want %s", p.String(), want)
		}
	}
	for _, bad := range []string{"", "10.0.0.0", "10.0.0/24", "10.0.0.0/33",
		"10.0.0.0/-1", "10.0.0.256/8", "10.0.0.x/8", "10.0.0.0/x",
		// Signs and leading zeros: inet_aton reads 010 as octal 8.
		"+10.0.0.0/8", "010.000.0.0/08", "-0.0.0.0/0", "10.0.0.0/+8",
		"10.0.0.00/8", "10.0.0.0/08", "10.01.0.0/16", "10.0.0.0/", "10..0.0/8"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) accepted malformed input", bad)
		}
	}
}

func TestPrefixContainment(t *testing.T) {
	p := MustParsePrefix("10.1.2.0/24")
	for _, a := range []Addr{
		AddrFrom4(10, 1, 2, 0), AddrFrom4(10, 1, 2, 1), AddrFrom4(10, 1, 2, 255),
	} {
		if !p.Contains(a) {
			t.Errorf("%s should contain %s", p, a)
		}
	}
	for _, a := range []Addr{
		AddrFrom4(10, 1, 1, 255), AddrFrom4(10, 1, 3, 0), AddrFrom4(11, 1, 2, 1),
	} {
		if p.Contains(a) {
			t.Errorf("%s should not contain %s", p, a)
		}
	}
	// A parent contains its children; siblings never overlap.
	parent := MustParsePrefix("10.1.0.0/16")
	if !parent.Overlaps(p) || !p.Overlaps(parent) {
		t.Error("parent and child must overlap (both directions)")
	}
	sib := MustParsePrefix("10.2.0.0/16")
	if parent.Overlaps(sib) {
		t.Error("sibling /16s must not overlap")
	}
}

func TestPrefixHostRange(t *testing.T) {
	p := MustParsePrefix("192.168.1.0/24")
	if got := p.NumAddrs(); got != 256 {
		t.Fatalf("NumAddrs = %d, want 256", got)
	}
	if got := p.NumHosts(); got != 254 {
		t.Fatalf("NumHosts = %d, want 254", got)
	}
	if got := p.FirstHost().String(); got != "192.168.1.1" {
		t.Fatalf("FirstHost = %s", got)
	}
	if got := p.LastHost().String(); got != "192.168.1.254" {
		t.Fatalf("LastHost = %s", got)
	}
	if got := p.Broadcast().String(); got != "192.168.1.255" {
		t.Fatalf("Broadcast = %s", got)
	}

	hosts := p.Hosts()
	if len(hosts) != 254 {
		t.Fatalf("Hosts() returned %d addresses, want 254", len(hosts))
	}
	// Ascending, and never the network or broadcast address.
	for i, a := range hosts {
		if i > 0 && hosts[i-1] >= a {
			t.Fatalf("Hosts() not ascending at %d: %s >= %s", i, hosts[i-1], a)
		}
		if a == p.addr || a == p.Broadcast() {
			t.Fatalf("Hosts() handed out %s (network/broadcast)", a)
		}
	}

	// Exclusions (the gateway) drop out without disturbing order.
	gw := AddrFrom4(192, 168, 1, 1)
	rest := p.Hosts(gw)
	if len(rest) != 253 {
		t.Fatalf("Hosts(gw) returned %d addresses, want 253", len(rest))
	}
	for _, a := range rest {
		if a == gw {
			t.Fatal("Hosts(gw) still contains the excluded gateway")
		}
	}
}

func TestPrefixSmallBlocks(t *testing.T) {
	// RFC 3021: /31 and /32 blocks have no network/broadcast reservation.
	p31 := MustParsePrefix("10.0.0.0/31")
	if got := p31.NumHosts(); got != 2 {
		t.Fatalf("/31 NumHosts = %d, want 2", got)
	}
	if h := p31.Hosts(); len(h) != 2 || h[0] != AddrFrom4(10, 0, 0, 0) || h[1] != AddrFrom4(10, 0, 0, 1) {
		t.Fatalf("/31 Hosts = %v", h)
	}
	p32 := MustParsePrefix("10.0.0.9/32")
	if got := p32.NumHosts(); got != 1 {
		t.Fatalf("/32 NumHosts = %d, want 1", got)
	}
	if h := p32.Hosts(); len(h) != 1 || h[0] != AddrFrom4(10, 0, 0, 9) {
		t.Fatalf("/32 Hosts = %v", h)
	}
}

func TestPrefixFromPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PrefixFrom(_, 33) did not panic")
		}
	}()
	PrefixFrom(0, 33)
}

func TestPrefixJSONRoundTrip(t *testing.T) {
	type wrapper struct {
		CIDR Prefix `json:"cidr"`
	}
	in := wrapper{CIDR: MustParsePrefix("10.40.0.0/16")}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"cidr":"10.40.0.0/16"}` {
		t.Fatalf("marshal = %s", b)
	}
	var out wrapper
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.CIDR != in.CIDR {
		t.Fatalf("round trip = %v, want %v", out.CIDR, in.CIDR)
	}
	var zero wrapper
	if err := json.Unmarshal([]byte(`{"cidr":""}`), &zero); err != nil {
		t.Fatal(err)
	}
	if zero.CIDR.IsValid() {
		t.Fatal("empty string should decode to the invalid zero Prefix")
	}
	if err := json.Unmarshal([]byte(`{"cidr":"10.0.0.0/40"}`), &out); err == nil {
		t.Fatal("bad mask length should fail to decode")
	}
}
