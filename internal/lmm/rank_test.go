package lmm

import (
	"sort"
	"testing"

	"spider/internal/alloc"
	"spider/internal/dot11"
	"spider/internal/driver"
)

// The candidate ranking must be a strict total order over scan entries:
// reselect insertion-sorts under rankBefore, and any tie the comparator
// leaves unresolved would make the chosen AP depend on scan-table
// insertion order — a scheduler-visible nondeterminism. These tests pin
// the order's properties and its permutation invariance for every ranking
// mode (legacy utility, RSSI-only, and the alloc policy's PF score).

// rankEntries builds candidates engineered for maximum tying: shared RSSI
// values and no utility history, so only the final BSSID tie-break can
// separate several of them.
func rankEntries() []driver.ScanEntry {
	mk := func(id uint32, ch dot11.Channel, rssi float64) driver.ScanEntry {
		return driver.ScanEntry{BSSID: dot11.MAC(id), Channel: ch, RSSI: rssi, Open: true}
	}
	return []driver.ScanEntry{
		mk(0x105, dot11.Channel1, -60),
		mk(0x101, dot11.Channel1, -60), // ties 0x105 on RSSI
		mk(0x103, dot11.Channel6, -60), // ties both, other channel
		mk(0x102, dot11.Channel1, -55),
		mk(0x104, dot11.Channel6, -75),
		mk(0x106, dot11.Channel11, -55), // ties 0x102 on RSSI
	}
}

// checkStrictTotalOrder asserts irreflexivity, antisymmetric totality,
// and transitivity of less over the entries.
func checkStrictTotalOrder(t *testing.T, entries []driver.ScanEntry, less func(a, b driver.ScanEntry) bool) {
	t.Helper()
	for i, a := range entries {
		if less(a, a) {
			t.Errorf("entry %d ranks before itself", i)
		}
		for j, b := range entries {
			if i == j {
				continue
			}
			ab, ba := less(a, b), less(b, a)
			if ab == ba {
				t.Errorf("entries %d,%d not strictly ordered: less(a,b)=%v less(b,a)=%v", i, j, ab, ba)
			}
			for k, c := range entries {
				if k == i || k == j {
					continue
				}
				if ab && less(b, c) && !less(a, c) {
					t.Errorf("order not transitive over %d,%d,%d", i, j, k)
				}
			}
		}
	}
}

// checkPermutationInvariant sorts every rotation of the candidate list
// and asserts one canonical result — the property that kills insertion-
// order dependence.
func checkPermutationInvariant(t *testing.T, entries []driver.ScanEntry, less func(a, b driver.ScanEntry) bool) {
	t.Helper()
	var want []dot11.MACAddr
	for rot := 0; rot < len(entries); rot++ {
		perm := append([]driver.ScanEntry(nil), entries[rot:]...)
		perm = append(perm, entries[:rot]...)
		sort.Slice(perm, func(i, j int) bool { return less(perm[i], perm[j]) })
		got := make([]dot11.MACAddr, len(perm))
		for i, e := range perm {
			got[i] = e.BSSID
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rotation %d sorts differently at %d: %v vs %v", rot, i, got, want)
			}
		}
	}
}

func TestRankBeforeStrictTotalOrderLegacy(t *testing.T) {
	r := newRig(t, DefaultConfig())
	checkStrictTotalOrder(t, rankEntries(), r.m.rankBefore)
	checkPermutationInvariant(t, rankEntries(), r.m.rankBefore)
}

func TestRankBeforeStrictTotalOrderRSSIOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SelectByRSSIOnly = true
	r := newRig(t, cfg)
	checkStrictTotalOrder(t, rankEntries(), r.m.rankBefore)
	checkPermutationInvariant(t, rankEntries(), r.m.rankBefore)
}

func TestRankBeforeStrictTotalOrderAlloc(t *testing.T) {
	// The preference spread makes scores differ per BSSID; the order
	// properties must hold all the same.
	cfg := DefaultConfig()
	cfg.Alloc = alloc.NewPolicy(7)
	r := newRig(t, cfg)
	checkStrictTotalOrder(t, rankEntries(), r.m.rankBefore)
	checkPermutationInvariant(t, rankEntries(), r.m.rankBefore)
}
