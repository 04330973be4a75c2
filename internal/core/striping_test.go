package core

import (
	"testing"
	"time"

	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/mobility"
)

// stripeScenario is a static client inside range of n same-channel APs.
func stripeScenario(n int, objectBytes int64, preset Preset) (WorldConfig, ClientConfig) {
	var sites []mobility.APSite
	for i := 0; i < n; i++ {
		sites = append(sites, mobility.APSite{
			Pos:     geo.Point{X: 10 + 3*float64(i), Y: 0},
			Channel: dot11.Channel1, SSID: "str-" + string(rune('a'+i)),
			Open: true, BackhaulBps: 2e6,
		})
	}
	return WorldConfig{Seed: 7, Duration: 2 * time.Minute, Sites: sites},
		ClientConfig{Preset: preset, Mobility: mobility.Static(geo.Point{}), StripeObjectBytes: objectBytes}
}

func TestStripedObjectsComplete(t *testing.T) {
	res := Run(stripeScenario(2, 1<<20, SingleChannelMultiAP))
	if res.StripeObjects == 0 {
		t.Fatal("no objects completed")
	}
	if len(res.StripeObjectSecs) != res.StripeObjects {
		t.Fatalf("latency samples %d != objects %d", len(res.StripeObjectSecs), res.StripeObjects)
	}
	for _, s := range res.StripeObjectSecs {
		if s <= 0 {
			t.Fatalf("non-positive object latency %v", s)
		}
	}
	if res.BytesReceived < int64(res.StripeObjects)<<20 {
		t.Fatalf("received %d bytes for %d MiB objects", res.BytesReceived, res.StripeObjects)
	}
}

func TestStripingAggregatesAPs(t *testing.T) {
	multi := Run(stripeScenario(2, 2<<20, SingleChannelMultiAP))
	single := Run(stripeScenario(2, 2<<20, SingleChannelSingleAP))
	if multi.StripeObjects <= single.StripeObjects {
		t.Fatalf("striping over 2 APs completed %d objects vs single-AP %d",
			multi.StripeObjects, single.StripeObjects)
	}
}

func TestStripedMobileRun(t *testing.T) {
	// Striping must survive link churn on a drive-by scenario.
	sites, model, dur := road(dot11.Channel1, dot11.Channel1, dot11.Channel1)
	res := Run(WorldConfig{Seed: 3, Duration: dur, Sites: sites}, ClientConfig{Preset: SingleChannelMultiAP, Mobility: model, StripeObjectBytes: 512 << 10})
	if res.StripeObjects == 0 {
		t.Fatal("no objects completed while mobile")
	}
	if res.LinkDowns == 0 {
		t.Fatal("expected link churn in a drive-by")
	}
}
