// Quickstart: drive a Spider client past three roadside APs and print what
// it achieved.
//
//	go run ./examples/quickstart
//
// This exercises the whole stack — PHY, 802.11 join handshake, DHCP, PSM
// buffering, TCP downloads through rate-limited backhauls — on a scenario
// small enough to read end to end.
package main

import (
	"fmt"
	"time"

	"spider"
)

func main() {
	// Three open APs along a 1 km road, all on channel 1, with modest
	// residential backhauls.
	sites := []spider.APSite{
		{Pos: spider.Point{X: 200, Y: 20}, Channel: spider.Channel1, SSID: "cafe", Open: true, BackhaulBps: 2e6},
		{Pos: spider.Point{X: 500, Y: -30}, Channel: spider.Channel1, SSID: "library", Open: true, BackhaulBps: 1.5e6},
		{Pos: spider.Point{X: 520, Y: 35}, Channel: spider.Channel1, SSID: "house-42", Open: true, BackhaulBps: 1e6},
	}
	// A vehicle crossing at 10 m/s (~22 mph, the paper's dividing speed).
	route := spider.Route([]spider.Point{{X: 0, Y: 0}, {X: 1000, Y: 0}}, 10, false)

	// The world holds the deployment; the client is the vehicle.
	res := spider.Run(
		spider.WorldConfig{Seed: 42, Duration: 100 * time.Second, Sites: sites},
		spider.ClientConfig{
			Preset:   spider.SingleChannelMultiAP, // Spider's throughput-optimal mode
			Mobility: route,
		})

	fmt.Println("Spider quickstart — 1 km drive past 3 APs on channel 1")
	fmt.Printf("  downloaded:    %.1f KiB\n", float64(res.BytesReceived)/1024)
	fmt.Printf("  avg throughput: %.1f KB/s\n", res.ThroughputKBps)
	fmt.Printf("  connectivity:  %.0f%% of the drive\n", res.Connectivity*100)
	fmt.Printf("  links established: %d\n", res.LinkUps)
	fmt.Println("\n  join log:")
	for _, j := range res.Joins {
		fmt.Printf("    t=%-7v %-8v assoc %-6v dhcp %-6v -> %v\n",
			j.Start.Round(time.Millisecond), j.Channel,
			j.AssocDur.Round(time.Millisecond), j.DHCPDur.Round(time.Millisecond), j.Stage)
	}
	// Around x=500 the client is inside two APs' range at once; Spider
	// holds both links concurrently because they share a channel.
	fmt.Println("\n  seconds at k concurrent links:")
	for k := 0; k <= 3; k++ {
		if secs, ok := res.LinkSeconds[k]; ok {
			fmt.Printf("    %d links: %ds\n", k, secs)
		}
	}
}
