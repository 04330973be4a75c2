package sim

import "math/rand"

// A math/rand source seeded with s holds a 607-word register vec, filled
// by rngSource.Seed, and its k-th draw is vec[334-k] + vec[607-k] for
// k ≤ 273: no draw before the 274th reads a word an earlier draw wrote.
// Seed fills vec[i] from the seeding LCG x → 48271·x mod (2³¹−1), started
// at the reduced seed: its outputs at positions 21+3i, 22+3i and 23+3i,
// shifted by 40, 20 and 0 bits, XORed together and with rngCooked[i]. A
// power of 48271 reaches position 21+3i in one multiplication, so a head
// computes its stream's first headLen draws from the seed alone, touching
// only the 2·headLen words those draws read.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	lcgMul   = 48271
	rngMask  = 1<<63 - 1

	// headLen is how many draws a head serves before it builds the full
	// source. Any value up to rngTap is exact. Most streams a world seeds
	// draw one or two values (a client's root derives its driver and LMM
	// streams; a DHCP session draws one xid), and the long ones draw
	// millions. With 16, a full source is built for 3 of the ~1,236
	// streams of a 1024-client dense world and 9 of the 1,701 of the
	// rush-hour serve world; with 2 it would be built for 278 of the
	// latter.
	headLen = 16
)

// headCooked holds rngCooked[334-headLen .. 333] followed by
// rngCooked[607-headLen .. 606], the words the first headLen draws read.
// The values are copied from Go's src/math/rand/rng.go:
//
//	Copyright 2009 The Go Authors. All rights reserved.
//	Use of this source code is governed by a BSD-style
//	license that can be found in the Go distribution's LICENSE file.
var headCooked = [2 * headLen]int64{
	-8394115921626182539, -4304087667751778808, 2681532557646850893, 3681559472488511871, // 318
	-3915372517896561773, -2889241648411946534, -6564663803938238204, -8060058171802589521, // 322
	581945337509520675, 3648778920718647903, -4799698790548231394, -7602572252857820065, // 326
	220828013409515943, -1072987336855386047, 4287360518296753003, -4633371852008891965, // 330
	-7490986807540332668, 4133292154170828382, 2918308698224194548, -7703910638917631350, // 591
	-3929437324238184044, -4300543082831323144, -6344160503358350167, 5896236396443472108, // 595
	-758328221503023383, -1894351639983151068, -307900319840287220, -6278469401177312761, // 599
	-2171292963361310674, 8382142935188824023, 9103922860780351547, 4152330101494654406, // 603
}

// headPow[s] is 48271^(21+3i) mod (2³¹−1) for the vec index i of slot s,
// laid out as headCooked is.
var headPow = func() (p [2 * headLen]uint64) {
	for s := range p {
		i := rngLen - rngTap - headLen + s
		if s >= headLen {
			i = rngLen - 2*headLen + s
		}
		p[s] = lcgPow(21 + 3*i)
	}
	return p
}()

// lcgPow returns 48271^n mod (2³¹−1).
func lcgPow(n int) uint64 {
	p, b := uint64(1), uint64(lcgMul)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			p = p * b % int32max
		}
		b = b * b % int32max
	}
	return p
}

// rngHead is a math/rand source that yields exactly what
// rand.NewSource(seed) yields. It computes the first headLen draws from
// the seed and builds the full source on the draw after them.
type rngHead struct {
	seed int64
	long *rand.Rand // the full source, nil until draw headLen+1
	x    uint32     // the seed reduced as rngSource.Seed reduces it
	n    int32      // draws served
}

func newRNGHead(seed int64) rngHead {
	s := seed % int32max
	if s < 0 {
		s += int32max
	}
	if s == 0 {
		s = 89482311
	}
	return rngHead{seed: seed, x: uint32(s)}
}

// word returns the initial vec word of slot s.
func (h *rngHead) word(s int) int64 {
	x := uint64(h.x) * headPow[s] % int32max
	u := int64(x) << 40
	x = x * lcgMul % int32max
	u ^= int64(x) << 20
	x = x * lcgMul % int32max
	u ^= int64(x)
	return u ^ headCooked[s]
}

func (h *rngHead) Uint64() uint64 {
	if h.n < headLen {
		h.n++
		return uint64(h.word(headLen-int(h.n)) + h.word(2*headLen-int(h.n)))
	}
	if h.long == nil {
		h.long = rand.New(rand.NewSource(h.seed))
		for range headLen {
			h.long.Int63()
		}
	}
	return h.long.Uint64()
}

func (h *rngHead) Int63() int64 { return int64(h.Uint64() & rngMask) }

func (h *rngHead) Seed(seed int64) { *h = newRNGHead(seed) }
