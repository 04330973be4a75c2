// Adaptive: the paper's future-work extension (Section 4.8) in action — a
// scheduler that stays on one channel at vehicular speed but rotates all
// three channels when moving slowly, compared against both static modes at
// two speeds.
//
//	go run ./examples/adaptive
//
// At 15 m/s the adaptive mode should track the single-channel throughput;
// at 3 m/s it should pick up the multi-channel mode's extra connectivity.
package main

import (
	"fmt"
	"time"

	"spider"
)

func run(preset spider.Preset, speed float64, sites []spider.APSite, loop []spider.Point) spider.Result {
	return spider.Run(
		spider.WorldConfig{Seed: 3, Duration: 8 * time.Minute, Sites: sites},
		spider.ClientConfig{Preset: preset, Mobility: spider.Route(loop, speed, true)})
}

func main() {
	loop := []spider.Point{{X: 0, Y: 0}, {X: 1200, Y: 0}, {X: 1200, Y: 600}, {X: 0, Y: 600}}
	route := append(append([]spider.Point(nil), loop...), loop[0])
	deploy := spider.DefaultDeploy()
	deploy.OpenFraction = 0.5
	sites := spider.Deploy(3, route, deploy)
	fmt.Printf("adaptive scheduling demo: %d APs, 3.6 km loop\n", len(sites))

	for _, speed := range []float64{15, 3} {
		fmt.Printf("\n-- speed %.0f m/s --\n", speed)
		fmt.Printf("%-24s %12s %14s\n", "mode", "throughput", "connectivity")
		for _, cfg := range []struct {
			name   string
			preset spider.Preset
		}{
			{"single-channel (static)", spider.SingleChannelMultiAP},
			{"multi-channel (static)", spider.MultiChannelMultiAP},
			{"adaptive", spider.Adaptive},
		} {
			res := run(cfg.preset, speed, sites, loop)
			fmt.Printf("%-24s %8.1f KB/s %12.1f %%\n",
				cfg.name, res.ThroughputKBps, res.Connectivity*100)
		}
	}
	fmt.Println("\nadaptive follows the better static mode at each speed (threshold 10 m/s).")
}
