package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"spider/internal/capture"
	"spider/internal/chaos"
	"spider/internal/sim"

	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/lmm"
	"spider/internal/mobility"
)

// road builds a straight drive past APs on the given channels, one every
// 200 m starting at x=150, all directly on the road.
func road(channels ...dot11.Channel) ([]mobility.APSite, mobility.Model, time.Duration) {
	var sites []mobility.APSite
	for i, ch := range channels {
		sites = append(sites, mobility.APSite{
			Pos:         geo.Point{X: 150 + float64(i)*200, Y: 0},
			Channel:     ch,
			SSID:        "site-" + string(rune('a'+i)),
			Open:        true,
			BackhaulBps: 2e6,
		})
	}
	length := 300 + float64(len(channels))*200
	model := mobility.NewWaypoints([]geo.Point{{X: 0, Y: 0}, {X: length, Y: 0}}, 10, false)
	dur := time.Duration(length/10) * time.Second
	return sites, model, dur
}

func TestDriveBySingleAP(t *testing.T) {
	sites, model, dur := road(dot11.Channel1)
	res := Run(WorldConfig{Seed: 1, Duration: dur, Sites: sites}, ClientConfig{Preset: SingleChannelMultiAP, Mobility: model})
	if res.BytesReceived == 0 {
		t.Fatal("no data received driving past an AP")
	}
	if res.Connectivity <= 0 || res.Connectivity >= 1 {
		t.Fatalf("connectivity = %v, want in (0,1)", res.Connectivity)
	}
	if res.LinkUps == 0 {
		t.Fatal("no link ever came up")
	}
	complete := 0
	for _, j := range res.Joins {
		if j.Stage == lmm.StageComplete {
			complete++
		}
	}
	if complete == 0 {
		t.Fatal("no complete join recorded")
	}
	if res.ThroughputKBps <= 0 {
		t.Fatal("zero throughput")
	}
}

// TestDataPathAllocatesLittle bounds what a bulk download allocates per
// delivered payload byte. Packets travel the data path as values, so a
// segment costs no allocation at any hop; serializing each segment's
// payload at each hop cost about two bytes per payload byte. The bound
// reads allocated bytes, not allocation counts, which the Go toolchain
// moves, and sits far from both.
func TestDataPathAllocatesLittle(t *testing.T) {
	sites, model, dur := road(dot11.Channel1, dot11.Channel1, dot11.Channel1)
	world := WorldConfig{Seed: 1, Duration: dur, Sites: sites}
	client := ClientConfig{Preset: SingleChannelSingleAP, Mobility: model}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := Run(world, client)
	runtime.ReadMemStats(&after)
	if res.BytesReceived < 1<<20 {
		t.Fatalf("delivered only %d bytes; the bound needs a bulk transfer", res.BytesReceived)
	}
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.BytesReceived)
	t.Logf("%.3f bytes allocated per payload byte over %d delivered", perByte, res.BytesReceived)
	if perByte >= 0.5 {
		t.Fatalf("allocated %.3f bytes per delivered payload byte, want < 0.5", perByte)
	}
}

func TestDeterminism(t *testing.T) {
	sites, model, dur := road(dot11.Channel1, dot11.Channel1)
	run := func() Result {
		return Run(WorldConfig{Seed: 42, Duration: dur, Sites: sites}, ClientConfig{Preset: SingleChannelMultiAP, Mobility: model})
	}
	a, b := run(), run()
	if a.BytesReceived != b.BytesReceived || a.LinkUps != b.LinkUps || a.Connectivity != b.Connectivity {
		t.Fatalf("non-deterministic: %+v vs %+v", a.BytesReceived, b.BytesReceived)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	sites, model, dur := road(dot11.Channel1, dot11.Channel1)
	a := Run(WorldConfig{Seed: 1, Duration: dur, Sites: sites}, ClientConfig{Preset: SingleChannelMultiAP, Mobility: model})
	b := Run(WorldConfig{Seed: 2, Duration: dur, Sites: sites}, ClientConfig{Preset: SingleChannelMultiAP, Mobility: model})
	if a.BytesReceived == b.BytesReceived {
		t.Fatal("different seeds produced byte-identical results (suspicious)")
	}
}

func TestDisableTraffic(t *testing.T) {
	sites, model, dur := road(dot11.Channel1)
	res := Run(WorldConfig{Seed: 1, Duration: dur, Sites: sites}, ClientConfig{Preset: SingleChannelMultiAP, Mobility: model, DisableTraffic: true})
	if res.BytesReceived != 0 {
		t.Fatal("traffic flowed despite DisableTraffic")
	}
	if len(res.Joins) == 0 {
		t.Fatal("no joins recorded in join-only mode")
	}
}

func TestMultiAPBeatsSingleAPOnSameChannel(t *testing.T) {
	// Two overlapping APs on channel 1: multi-AP aggregates both backhauls.
	var sites []mobility.APSite
	for i := 0; i < 2; i++ {
		sites = append(sites, mobility.APSite{
			Pos:     geo.Point{X: 300, Y: float64(10 * i)},
			Channel: dot11.Channel1, SSID: "twin-" + string(rune('a'+i)),
			Open: true, BackhaulBps: 1e6,
		})
	}
	model := mobility.NewWaypoints([]geo.Point{{X: 0, Y: 0}, {X: 600, Y: 0}}, 5, false)
	dur := 2 * time.Minute
	multi := Run(WorldConfig{Seed: 3, Duration: dur, Sites: sites}, ClientConfig{Preset: SingleChannelMultiAP, Mobility: model})
	single := Run(WorldConfig{Seed: 3, Duration: dur, Sites: sites}, ClientConfig{Preset: SingleChannelSingleAP, Mobility: model})
	if multi.BytesReceived <= single.BytesReceived {
		t.Fatalf("multi-AP %d <= single-AP %d bytes", multi.BytesReceived, single.BytesReceived)
	}
}

func TestStockPresetRuns(t *testing.T) {
	sites, model, dur := road(dot11.Channel1, dot11.Channel6)
	res := Run(WorldConfig{Seed: 5, Duration: dur, Sites: sites}, ClientConfig{Preset: Stock, Mobility: model})
	// Stock must at least occasionally connect somewhere.
	if res.LinkUps == 0 {
		t.Fatal("stock driver never connected")
	}
}

func TestAdaptivePresetSwitchesModes(t *testing.T) {
	// Slow client (below the 10 m/s threshold): adaptive should move to the
	// multi-channel schedule and still work.
	sites, _, _ := road(dot11.Channel1, dot11.Channel6, dot11.Channel11)
	model := mobility.NewWaypoints([]geo.Point{{X: 0, Y: 0}, {X: 900, Y: 0}}, 3, false)
	res := Run(WorldConfig{Seed: 7, Duration: 2 * time.Minute, Sites: sites}, ClientConfig{Preset: Adaptive, Mobility: model})
	if res.Driver.Switches == 0 {
		t.Fatal("adaptive mode never rotated channels for a slow client")
	}
	if res.LinkUps == 0 {
		t.Fatal("adaptive mode never connected")
	}
}

func TestFiniteFlows(t *testing.T) {
	sites, model, dur := road(dot11.Channel1)
	res := Run(WorldConfig{Seed: 9, Duration: dur, Sites: sites}, ClientConfig{Preset: SingleChannelMultiAP, Mobility: model, FlowBytes: 50_000})
	if res.BytesReceived == 0 {
		t.Fatal("finite flow transferred nothing")
	}
	if res.BytesReceived > 50_000 {
		t.Fatalf("received %d > flow bound", res.BytesReceived)
	}
}

func TestLinkSecondsAccounting(t *testing.T) {
	sites, model, dur := road(dot11.Channel1, dot11.Channel1)
	res := Run(WorldConfig{Seed: 11, Duration: dur, Sites: sites}, ClientConfig{Preset: SingleChannelMultiAP, Mobility: model})
	total := 0
	for _, secs := range res.LinkSeconds {
		total += secs
	}
	want := int(dur / time.Second)
	if total != want {
		t.Fatalf("link-seconds total = %d, want %d", total, want)
	}
}

func TestMissingMobilityPanics(t *testing.T) {
	// The world has a site, so the panic can only come from the client.
	sites, _, _ := road(dot11.Channel1)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(strings.ToLower(fmt.Sprint(r)), "mobility") {
			t.Fatalf("missing mobility: panic %v, want the mobility check's", r)
		}
	}()
	Run(WorldConfig{Seed: 1, Duration: time.Second, Sites: sites}, ClientConfig{})
}

func TestCaptiveSiteNeverBecomesALink(t *testing.T) {
	sites := []mobility.APSite{{
		Pos: geo.Point{X: 10, Y: 0}, Channel: dot11.Channel1,
		SSID: "portal", Open: true, BackhaulBps: 2e6, Captive: true,
	}}
	res := Run(WorldConfig{Seed: 1, Duration: 30 * time.Second, Sites: sites}, ClientConfig{Preset: SingleChannelMultiAP, Mobility: mobility.Static(geo.Point{})})
	if res.LinkUps != 0 {
		t.Fatal("captive portal produced a usable link")
	}
	if res.LMM.PingFailures == 0 {
		t.Fatal("end-to-end test never failed against the portal")
	}
	if res.BytesReceived != 0 {
		t.Fatal("data flowed through a captive portal")
	}
}

func TestDHCPDeadSiteFailsAtDHCP(t *testing.T) {
	sites := []mobility.APSite{{
		Pos: geo.Point{X: 10, Y: 0}, Channel: dot11.Channel1,
		SSID: "deadhcp", Open: true, BackhaulBps: 2e6, DHCPDead: true,
	}}
	res := Run(WorldConfig{Seed: 1, Duration: 30 * time.Second, Sites: sites}, ClientConfig{Preset: SingleChannelMultiAP, Mobility: mobility.Static(geo.Point{})})
	if res.LinkUps != 0 {
		t.Fatal("dead-DHCP AP produced a link")
	}
	if res.LMM.DHCPFailures == 0 {
		t.Fatal("no DHCP failures recorded against the dead server")
	}
	if res.LMM.AssocFailures != 0 {
		t.Fatal("association should succeed against a dead-DHCP AP")
	}
}

func TestPCAPCaptureDecodes(t *testing.T) {
	sites, model, _ := road(dot11.Channel1)
	var buf bytes.Buffer
	res := Run(WorldConfig{Seed: 1, Duration: 20 * time.Second, Sites: sites, PCAP: &buf}, ClientConfig{Preset: SingleChannelMultiAP, Mobility: model})
	_ = res
	pkts, err := capture.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) < 100 {
		t.Fatalf("captured only %d frames in 20s", len(pkts))
	}
	types := map[dot11.FrameType]int{}
	prev := sim.Time(-1)
	for i, p := range pkts {
		f, err := dot11.Decode(p.Data)
		if err != nil {
			t.Fatalf("frame %d undecodable: %v", i, err)
		}
		types[f.Type]++
		if p.At < prev {
			t.Fatalf("capture timestamps not monotone at %d", i)
		}
		prev = p.At
	}
	if types[dot11.TypeBeacon] == 0 {
		t.Fatal("no beacons captured")
	}
	// The medium serializes each attempt only for the tap; pin the bytes
	// the capture holds for this seed.
	const want = "e78f198ca93a166365281f40cf9f98ec8bedc628a53e08cd3f9e814946b90b02"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("capture sha256 = %s, want %s", got, want)
	}
}

// segregatedTown builds a loop where each side of the block has all its
// usable APs on ONE channel — the environment where learned per-segment
// channel planning shines.
func segregatedTown() (mobility.Model, []mobility.APSite) {
	loop := []geo.Point{{X: 0, Y: 0}, {X: 1200, Y: 0}, {X: 1200, Y: 600}, {X: 0, Y: 600}}
	chans := []dot11.Channel{dot11.Channel1, dot11.Channel6, dot11.Channel11, dot11.Channel1}
	var sites []mobility.APSite
	id := 0
	closed := append(append([]geo.Point(nil), loop...), loop[0])
	for seg := 0; seg < 4; seg++ {
		a, b := closed[seg], closed[seg+1]
		for f := 0.1; f < 1; f += 0.2 {
			p := geo.Lerp(a, b, f)
			sites = append(sites, mobility.APSite{
				Pos: geo.Point{X: p.X, Y: p.Y + 15}, Channel: chans[seg],
				SSID: "seg-" + string(rune('a'+id)), Open: true, BackhaulBps: 3e6,
			})
			id++
		}
	}
	return mobility.NewWaypoints(loop, 10, true), sites
}

func TestPredictiveLearnsSegmentChannels(t *testing.T) {
	mob, sites := segregatedTown()
	dur := 18 * time.Minute // ~3 laps
	pred := Run(WorldConfig{Seed: 5, Duration: dur, Sites: sites}, ClientConfig{Preset: Predictive, Mobility: mob})
	rot := Run(WorldConfig{Seed: 5, Duration: dur, Sites: sites}, ClientConfig{Preset: MultiChannelMultiAP, Mobility: mob})
	if pred.LinkUps == 0 {
		t.Fatal("predictive never connected")
	}
	if pred.BytesReceived <= rot.BytesReceived {
		t.Fatalf("predictive %d bytes <= static rotation %d bytes on a segregated town",
			pred.BytesReceived, rot.BytesReceived)
	}
}

func TestChaosCrashRecoveryAndGoodputRetention(t *testing.T) {
	// The ISSUE's acceptance scenario: a static client striping through one
	// AP, which crashes mid-run and reboots 10s later. The LMM must tear
	// the dead link down, rejoin after the reboot within a bounded time,
	// and goodput must return to >= 90% of the pre-fault level.
	sites := []mobility.APSite{{
		Pos: geo.Point{X: 10, Y: 0}, Channel: dot11.Channel1,
		SSID: "chaos-a", Open: true, BackhaulBps: 2e6,
	}}
	sec := sim.Time(time.Second)
	plan := chaos.Plan{Events: []chaos.Event{
		{At: 40 * sec, Kind: chaos.APCrash, AP: 0, Duration: 10 * sec},
	}}
	res := Run(WorldConfig{Seed: 1, Duration: 150 * time.Second, Sites: sites, Chaos: &plan}, ClientConfig{Preset: SingleChannelMultiAP, Mobility: mobility.Static(geo.Point{})})
	if res.Chaos.Crashes != 1 || res.Chaos.Reboots != 1 {
		t.Fatalf("chaos stats = %+v, want 1 crash + 1 scheduled reboot", res.Chaos)
	}
	if res.LinkDowns == 0 {
		t.Fatal("the crash never tore the link down")
	}
	if res.LinkUps < 2 {
		t.Fatalf("LinkUps = %d, want the pre-fault join plus a post-reboot rejoin", res.LinkUps)
	}
	// Every outage must close, within a bounded recovery time. The reboot
	// lands at t=50s; teardown, backoff, rescan, and rejoin are each
	// bounded, so 30s covers the worst case with margin.
	if len(res.Recoveries) == 0 {
		t.Fatal("no recovery recorded: the outage never closed")
	}
	if len(res.Recoveries) < res.LinkDowns {
		t.Fatalf("recoveries = %d < link downs = %d: an outage is still open (wedged conn)",
			len(res.Recoveries), res.LinkDowns)
	}
	for _, r := range res.Recoveries {
		if r > 30 {
			t.Fatalf("recovery took %.1fs, want < 30s", r)
		}
	}
	// Goodput retention: compare steady windows before the fault and after
	// the worst-case recovery horizon.
	if len(res.PerSecondKBps) != 150 {
		t.Fatalf("PerSecondKBps has %d buckets, want 150", len(res.PerSecondKBps))
	}
	mean := func(lo, hi int) float64 {
		sum := 0.0
		for _, v := range res.PerSecondKBps[lo:hi] {
			sum += v
		}
		return sum / float64(hi-lo)
	}
	pre := mean(10, 40)
	post := mean(80, 150)
	if pre <= 0 {
		t.Fatal("no pre-fault goodput")
	}
	if post < 0.9*pre {
		t.Fatalf("post-recovery goodput %.1f KB/s < 90%% of pre-fault %.1f KB/s", post, pre)
	}
}

func TestChaosDeterminism(t *testing.T) {
	sites, model, dur := road(dot11.Channel1, dot11.Channel1)
	sec := sim.Time(time.Second)
	plan := chaos.Plan{
		Events: []chaos.Event{{At: 20 * sec, Kind: chaos.APCrash, AP: 0, Duration: 8 * sec}},
		Procs: []chaos.Process{
			{Kind: chaos.DHCPSilence, Mean: 30 * sec, Duration: 5 * sec, AP: chaos.RandomAP},
			{Kind: chaos.NoiseBurst, Mean: 40 * sec, Duration: 3 * sec, Channel: dot11.Channel1, Loss: 0.4},
		},
	}
	run := func() Result {
		p := plan
		return Run(WorldConfig{Seed: 42, Duration: dur, Sites: sites, Chaos: &p}, ClientConfig{Preset: SingleChannelMultiAP, Mobility: model})
	}
	a, b := run(), run()
	if a.BytesReceived != b.BytesReceived || a.LinkUps != b.LinkUps ||
		a.Chaos != b.Chaos || len(a.Recoveries) != len(b.Recoveries) {
		t.Fatalf("chaos runs diverged: %+v vs %+v", a.Chaos, b.Chaos)
	}
	for i := range a.Recoveries {
		if a.Recoveries[i] != b.Recoveries[i] {
			t.Fatalf("recovery %d differs: %v vs %v", i, a.Recoveries[i], b.Recoveries[i])
		}
	}
	if a.Chaos.Injected == 0 {
		t.Fatal("the plan injected nothing")
	}
}
