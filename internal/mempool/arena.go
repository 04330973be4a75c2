// Package mempool provides small allocation amortizers for simulation hot
// paths. The contract throughout: pooled memory is owned by one
// single-goroutine scenario, never shared across fleet workers, and never
// reused while an alias may live — arenas only amortize allocation count,
// they do not recycle bytes.
package mempool

// arenaChunk is the bump-allocation block size. Frame bodies and segments
// average ~100 bytes, so one chunk absorbs several hundred allocations.
const arenaChunk = 1 << 16

// ByteArena hands out byte slices carved from large chunks, turning N
// small allocations into N/hundreds of chunk allocations. Slices are never
// reclaimed or reused: a chunk is garbage-collected only after every slice
// carved from it dies, so aliasing a returned slice indefinitely is safe
// (every receiver of a frame aliases the body its sender carved, for
// example). The zero value is ready to use. Not safe for concurrent use.
type ByteArena struct {
	buf []byte
}

// Take returns an empty slice with capacity exactly n, carved from the
// current chunk. Appending up to n bytes fills the reserved region;
// appending beyond n reallocates (full-slice-expression cap), so a
// misbehaving caller can never stomp a neighbouring allocation.
func (a *ByteArena) Take(n int) []byte {
	if n > cap(a.buf)-len(a.buf) {
		size := arenaChunk
		if n > size {
			size = n
		}
		a.buf = make([]byte, 0, size)
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	return a.buf[off : off : off+n]
}
