package driver

import (
	"testing"
	"time"

	"spider/internal/dot11"
)

// The scan table's iteration order feeds the LMM's candidate ranking and
// the alloc controller's RSSI lookups, so it must be a pure function of
// the set of live APs — never of beacon arrival order or of the order APs
// were brought up. ScanTable documents BSSID order; these tests pin it.

func scanCfg() Config {
	return Config{
		NumVIFs:       2,
		LLTimeout:     100 * time.Millisecond,
		ProbeInterval: 500 * time.Millisecond,
	}
}

func tableBSSIDs(d *Driver) []dot11.MACAddr {
	entries := d.ScanTable()
	out := make([]dot11.MACAddr, len(entries))
	for i, e := range entries {
		out[i] = e.BSSID
	}
	return out
}

func TestScanTableSortedByBSSID(t *testing.T) {
	r := newRig(t, scanCfg())
	r.drv.SetSchedule([]Slot{{Channel: dot11.Channel1}})
	// Bring APs up in descending-BSSID order: the table must come back
	// ascending regardless.
	for id := uint32(9); id >= 5; id-- {
		r.addAP(dot11.Channel1, id)
	}
	r.run(3 * 1e9)
	got := tableBSSIDs(r.drv)
	if len(got) != 5 {
		t.Fatalf("scan table has %d entries, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].Less(got[i]) {
			t.Fatalf("scan table not in strictly ascending BSSID order at %d: %v", i, got)
		}
	}
}

func TestScanTableOrderIgnoresBringUpOrder(t *testing.T) {
	// Two rigs, same APs, opposite bring-up order: identical tables.
	up := newRig(t, scanCfg())
	up.drv.SetSchedule([]Slot{{Channel: dot11.Channel1}})
	for id := uint32(5); id <= 9; id++ {
		up.addAP(dot11.Channel1, id)
	}
	down := newRig(t, scanCfg())
	down.drv.SetSchedule([]Slot{{Channel: dot11.Channel1}})
	for id := uint32(9); id >= 5; id-- {
		down.addAP(dot11.Channel1, id)
	}
	up.run(3 * 1e9)
	down.run(3 * 1e9)
	a, b := tableBSSIDs(up.drv), tableBSSIDs(down.drv)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("table sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scan order depends on AP bring-up order at %d: %v vs %v", i, a, b)
		}
	}
}
