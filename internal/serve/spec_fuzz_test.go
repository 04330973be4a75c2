package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/mobility"
	"spider/internal/obs"
	"spider/internal/sim"
)

// Fuzz-execution bounds. They keep each execution to milliseconds and are
// not limits on what the daemon accepts: inputs over 4 KiB, worlds with
// more than 8 sites or 8 clients, chaos plans with more than 8 entries and
// address pools over 1,024 hosts are skipped, and each world runs 2 s of
// virtual time.
const (
	fuzzMaxInput   = 4 << 10
	fuzzMaxEntries = 8
	fuzzMaxHosts   = 1 << 10
	fuzzRun        = sim.Time(2 * time.Second)
)

// slowSpec reports a world spec outside the fuzz-execution bounds.
func slowSpec(w *WorldSpec) bool {
	if len(w.Sites) > fuzzMaxEntries || len(w.Clients) > fuzzMaxEntries ||
		w.AP.DHCPPoolSize > fuzzMaxHosts {
		return true
	}
	if w.IPAM != nil {
		for _, p := range w.IPAM.Pools {
			if (p.CIDR.IsValid() && p.CIDR.NumHosts() > fuzzMaxHosts) || len(p.Addrs) > fuzzMaxHosts {
				return true
			}
		}
	}
	return false
}

// FuzzWorldSpec: a world spec that Validate accepts builds and runs
// without a panic. The seed corpus in testdata/fuzz/FuzzWorldSpec holds
// the test world and the specs that panicked Open before Validate checked
// site channels, routes and client IDs.
func FuzzWorldSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WorldSpec
		if len(data) > fuzzMaxInput || DecodeStrict(bytes.NewReader(data), &w) != nil || slowSpec(&w) {
			return
		}
		if w.Validate() != nil {
			return
		}
		scn, _, err := w.start(obs.NewRecorder())
		if err != nil {
			t.Fatalf("Validate accepted a spec start refuses: %v", err)
		}
		scn.StepUntil(fuzzRun)
	})
}

// fuzzWorld is the small world intents are fuzzed against: two APs on
// different channels and one parked client.
func fuzzWorld() *WorldSpec {
	return &WorldSpec{
		Seed: 3,
		Sites: []mobility.APSite{
			{Pos: geo.Point{X: 0, Y: 10}, Channel: dot11.Channel1, SSID: "fuzz-a", Open: true, BackhaulBps: 2e6},
			{Pos: geo.Point{X: 80, Y: 10}, Channel: dot11.Channel6, SSID: "fuzz-b", Open: true, BackhaulBps: 2e6},
		},
		Clients: []ClientSpec{{ID: 1, Route: RouteSpec{Points: []geo.Point{{X: 20}}}}},
	}
}

// FuzzIntent: any intent either is rejected by Accept and journals
// nothing, or is journaled and applied without a panic. The seed corpus
// in testdata/fuzz/FuzzIntent holds one intent of each kind and the
// add-client intents that panicked the daemon before validation checked
// routes and channels.
func FuzzIntent(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var in Intent
		if len(data) > fuzzMaxInput || DecodeStrict(bytes.NewReader(data), &in) != nil {
			return
		}
		if p := in.Chaos; p != nil && len(p.Events)+len(p.Procs) > fuzzMaxEntries {
			return
		}
		dir := t.TempDir()
		srv, err := Open(dir, fuzzWorld())
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.Advance(time.Second)
		if _, err := srv.Accept(in, 0); err != nil {
			fi, serr := os.Stat(filepath.Join(dir, walFile))
			if srv.NextSeq() != 0 || srv.Pending() != 0 || serr != nil || fi.Size() != 0 {
				t.Fatalf("rejected intent (%v) was journaled", err)
			}
			return
		}
		srv.Advance(time.Second + fuzzRun)
		if srv.Applied() != 1 {
			t.Fatalf("accepted intent applied %d times", srv.Applied())
		}
	})
}
