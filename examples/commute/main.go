// Commute: the encounter-history extension. A commuter loops the same
// blocks every day; each road segment's usable APs happen to sit on one
// channel. The predictive planner explores on the first lap, then plans
// its channel ahead of its own position — compare it against the static
// single-channel and rotating schedules on the identical town.
//
//	go run ./examples/commute
package main

import (
	"fmt"
	"time"

	"spider"
)

func main() {
	// A block loop where each side's APs live on one channel.
	loop := []spider.Point{{X: 0, Y: 0}, {X: 1200, Y: 0}, {X: 1200, Y: 600}, {X: 0, Y: 600}}
	chans := []spider.Channel{spider.Channel1, spider.Channel6, spider.Channel11, spider.Channel6}
	closed := append(append([]spider.Point(nil), loop...), loop[0])
	var sites []spider.APSite
	for seg := 0; seg < 4; seg++ {
		a, b := closed[seg], closed[seg+1]
		for f := 0.125; f < 1; f += 0.25 {
			p := spider.Point{
				X: a.X + (b.X-a.X)*f,
				Y: a.Y + (b.Y-a.Y)*f + 20,
			}
			sites = append(sites, spider.APSite{
				Pos: p, Channel: chans[seg],
				SSID: fmt.Sprintf("blk%d-%0.0f", seg, f*100), Open: true, BackhaulBps: 3e6,
			})
		}
	}
	fmt.Println("commute demo: 16 APs, channel segregated per block side, 10 m/s, 18 min (~3 laps)")
	fmt.Printf("%-28s %12s %14s\n", "mode", "throughput", "connectivity")
	for _, cfg := range []struct {
		name   string
		preset spider.Preset
	}{
		{"static single-channel (ch6)", spider.SingleChannelMultiAP},
		{"static rotation", spider.MultiChannelMultiAP},
		{"predictive planner", spider.Predictive},
	} {
		res := spider.Run(
			spider.WorldConfig{Seed: 5, Duration: 18 * time.Minute, Sites: sites},
			spider.ClientConfig{
				Preset:         cfg.preset,
				PrimaryChannel: spider.Channel6,
				Mobility:       spider.Route(loop, 10, true),
			})
		fmt.Printf("%-28s %8.1f KB/s %12.1f %%\n",
			cfg.name, res.ThroughputKBps, res.Connectivity*100)
	}
	fmt.Println("\nthe planner learns each block's channel on lap 1 and rides the right")
	fmt.Println("channel thereafter — full dwell like single-channel, coverage like rotation.")
}
