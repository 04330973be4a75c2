package ipnet

import (
	"fmt"
	"strconv"
	"strings"
)

// Prefix is an IPv4 CIDR block: a network address and a mask length. The
// zero Prefix is invalid (IsValid reports false); construction goes
// through PrefixFrom or ParsePrefix, both of which canonicalize the
// address to the network base so two prefixes covering the same block
// compare equal.
type Prefix struct {
	addr Addr
	bits int
}

// PrefixFrom returns the prefix of the given mask length containing addr.
// The address is masked down to the network base. Bits outside [0, 32]
// panic: a malformed literal is a programming error, not input.
func PrefixFrom(addr Addr, bits int) Prefix {
	if bits < 0 || bits > 32 {
		panic(fmt.Sprintf("ipnet: prefix length %d out of range [0,32]", bits))
	}
	return Prefix{addr: addr & maskOf(bits), bits: bits}
}

// ParsePrefix parses "a.b.c.d/len" CIDR notation. Each octet and the
// length are plain decimal: a sign or a leading zero is rejected, as
// net/netip does, because inet_aton reads "010" as octal 8. Host bits are
// masked off.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ipnet: prefix %q missing /len", s)
	}
	bits, ok := parseDecimal(s[slash+1:], 32)
	if !ok {
		return Prefix{}, fmt.Errorf("ipnet: prefix %q has invalid length", s)
	}
	var quad [4]byte
	parts := strings.Split(s[:slash], ".")
	if len(parts) != 4 {
		return Prefix{}, fmt.Errorf("ipnet: prefix %q has invalid address", s)
	}
	for i, p := range parts {
		v, ok := parseDecimal(p, 255)
		if !ok {
			return Prefix{}, fmt.Errorf("ipnet: prefix %q has invalid octet %q", s, p)
		}
		quad[i] = byte(v)
	}
	return PrefixFrom(AddrFrom4(quad[0], quad[1], quad[2], quad[3]), bits), nil
}

// parseDecimal parses digits only, with no leading zero unless the number
// is 0 itself, and reports false for anything else or a value above limit.
func parseDecimal(s string, limit int) (int, bool) {
	if s == "" || len(s) > 1 && s[0] == '0' {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		if n = n*10 + int(s[i]-'0'); n > limit {
			return 0, false
		}
	}
	return n, true
}

// MustParsePrefix is ParsePrefix for literals; it panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// maskOf returns the netmask for a prefix length.
func maskOf(bits int) Addr {
	if bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - bits))
}

// IsValid reports whether the prefix was constructed (the zero Prefix is
// 0.0.0.0/0's sibling but distinguishable: PrefixFrom(0, 0) is valid and
// equal to the zero value, so callers that need "unset" should use a
// pointer). For the simulation's purposes a /0 is never a pool, so
// IsValid excludes it.
func (p Prefix) IsValid() bool { return p.bits > 0 && p.bits <= 32 }

// Broadcast returns the directed broadcast address (host bits one).
func (p Prefix) Broadcast() Addr { return p.addr | ^maskOf(p.bits) }

// NumAddrs returns the total address count, network and broadcast
// included.
func (p Prefix) NumAddrs() uint64 { return 1 << (32 - p.bits) }

// Contains reports whether a falls inside the block.
func (p Prefix) Contains(a Addr) bool { return a&maskOf(p.bits) == p.addr }

// Overlaps reports whether the two blocks share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q.addr) || q.Contains(p.addr)
}

// FirstHost returns the lowest assignable host address: the address after
// the network base, except in /31 and /32 blocks where every address is a
// host (RFC 3021 semantics).
func (p Prefix) FirstHost() Addr {
	if p.bits >= 31 {
		return p.addr
	}
	return p.addr + 1
}

// LastHost returns the highest assignable host address (the address
// before broadcast, except in /31 and /32 blocks).
func (p Prefix) LastHost() Addr {
	if p.bits >= 31 {
		return p.Broadcast()
	}
	return p.Broadcast() - 1
}

// NumHosts returns the assignable host count: NumAddrs minus the network
// and broadcast addresses (which are never handed out), except in /31 and
// /32 blocks where all addresses assign.
func (p Prefix) NumHosts() uint64 {
	if p.bits >= 31 {
		return p.NumAddrs()
	}
	return p.NumAddrs() - 2
}

// Hosts returns every assignable host address in ascending order,
// excluding the listed addresses (gateways live there). The slice is
// freshly allocated; pool carving owns it outright.
func (p Prefix) Hosts(exclude ...Addr) []Addr {
	skip := make(map[Addr]bool, len(exclude))
	for _, a := range exclude {
		skip[a] = true
	}
	out := make([]Addr, 0, p.NumHosts())
	for a := p.FirstHost(); ; a++ {
		if !skip[a] {
			out = append(out, a)
		}
		if a == p.LastHost() {
			break
		}
	}
	return out
}

// String formats the block in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.addr, p.bits)
}

// MarshalJSON encodes the block as its CIDR string, so prefixes embedded
// in configuration (ipam pool specs inside a serve world spec) round-trip
// through JSON without exposing the internal representation.
func (p Prefix) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(p.String())), nil
}

// UnmarshalJSON decodes CIDR notation; the empty string decodes to the
// zero (invalid) Prefix so optional fields stay optional.
func (p *Prefix) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("ipnet: prefix not a JSON string: %s", b)
	}
	if s == "" {
		*p = Prefix{}
		return nil
	}
	parsed, err := ParsePrefix(s)
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}
