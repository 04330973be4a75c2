// Striping: the data-striping extension in action. A stationary client in
// range of three modest APs on one channel downloads 4 MiB objects — first
// over its best single AP, then block-striped across all three links at
// once, the way the paper's related-work section suggests integrating
// Horde/MAR/PERM-style striping with Spider.
//
//	go run ./examples/striping
package main

import (
	"fmt"
	"time"

	"spider"
	"spider/internal/stats"
)

func run(preset spider.Preset) spider.Result {
	sites := []spider.APSite{
		{Pos: spider.Point{X: 10, Y: 0}, Channel: spider.Channel1, SSID: "alpha", Open: true, BackhaulBps: 2e6},
		{Pos: spider.Point{X: 13, Y: 0}, Channel: spider.Channel1, SSID: "beta", Open: true, BackhaulBps: 1.5e6},
		{Pos: spider.Point{X: 16, Y: 0}, Channel: spider.Channel1, SSID: "gamma", Open: true, BackhaulBps: 1e6},
	}
	return spider.Run(
		spider.WorldConfig{Seed: 11, Duration: 3 * time.Minute, Sites: sites},
		spider.ClientConfig{
			Preset:            preset,
			Mobility:          spider.StaticClient(spider.Point{}),
			StripeObjectBytes: 4 << 20,
		})
}

func main() {
	fmt.Println("striping demo: 4 MiB objects, 3 APs on channel 1 (2 + 1.5 + 1 Mbit/s)")
	fmt.Printf("%-28s %8s %16s %12s\n", "mode", "objects", "median latency", "throughput")
	for _, cfg := range []struct {
		name   string
		preset spider.Preset
	}{
		{"single best AP", spider.SingleChannelSingleAP},
		{"striped across all links", spider.SingleChannelMultiAP},
	} {
		res := run(cfg.preset)
		med := stats.Summarize(res.StripeObjectSecs).Median
		fmt.Printf("%-28s %8d %13.1f s %8.1f KB/s\n",
			cfg.name, res.StripeObjects, med, res.ThroughputKBps)
	}
	fmt.Println("\nstriping aggregates the three backhauls; block reassignment keeps a dying")
	fmt.Println("link from stalling the object (see internal/stripe for the scheduler).")
}
