// Downtown: the paper's Table 2 in miniature — one vehicle looping a
// downtown block while every Spider configuration takes a turn.
//
//	go run ./examples/downtown [-minutes 8]
//
// Expect the single-channel multi-AP mode to win on throughput by a wide
// margin and the multi-channel multi-AP mode to win on connectivity,
// exactly the trade-off Section 4.3 reports.
package main

import (
	"flag"
	"fmt"
	"time"

	"spider"
)

func main() {
	minutes := flag.Int("minutes", 8, "simulated minutes per configuration")
	seed := flag.Int64("seed", 1, "random seed (same town for all configs)")
	flag.Parse()

	loop := []spider.Point{{X: 0, Y: 0}, {X: 1200, Y: 0}, {X: 1200, Y: 600}, {X: 0, Y: 600}}
	route := append(append([]spider.Point(nil), loop...), loop[0])
	sites := spider.Deploy(*seed, route, spider.DefaultDeploy())
	open := 0
	for _, s := range sites {
		if s.Open {
			open++
		}
	}
	fmt.Printf("downtown: %d APs (%d open) on a 3.6 km loop, 10 m/s, %d min per config\n\n",
		len(sites), open, *minutes)

	configs := []struct {
		name   string
		preset spider.Preset
	}{
		{"(1) channel 1, multi-AP", spider.SingleChannelMultiAP},
		{"(2) channel 1, single-AP", spider.SingleChannelSingleAP},
		{"(3) multi-channel, multi-AP", spider.MultiChannelMultiAP},
		{"(4) multi-channel, single-AP", spider.MultiChannelSingleAP},
		{"stock MadWiFi-style driver", spider.Stock},
	}
	fmt.Printf("%-32s %12s %14s %8s\n", "configuration", "throughput", "connectivity", "links")
	for _, cfg := range configs {
		res := spider.Run(
			spider.WorldConfig{Seed: *seed, Duration: time.Duration(*minutes) * time.Minute, Sites: sites},
			spider.ClientConfig{Preset: cfg.preset, Mobility: spider.Route(loop, 10, true)})
		fmt.Printf("%-32s %8.1f KB/s %12.1f %% %8d\n",
			cfg.name, res.ThroughputKBps, res.Connectivity*100, res.LinkUps)
	}
	fmt.Println("\npaper's Table 2 shape: (1) wins throughput ≈4× over (3); (3) wins connectivity.")
}
