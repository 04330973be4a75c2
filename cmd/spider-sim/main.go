// Command spider-sim runs one Spider scenario and prints its measurements.
//
// Usage:
//
//	spider-sim -preset ch1-multi -duration 10m -speed 10 -aps-per-km 10
//	spider-sim -preset stock -seed 7 -open-fraction 0.5
//
// The scenario is the standard evaluation town: a 1.2 km × 0.6 km block
// loop with Poisson roadside APs in the paper's measured channel mix.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"spider"
)

var presets = map[string]spider.Preset{
	"ch1-multi":    spider.SingleChannelMultiAP,
	"ch1-single":   spider.SingleChannelSingleAP,
	"multi-multi":  spider.MultiChannelMultiAP,
	"multi-single": spider.MultiChannelSingleAP,
	"stock":        spider.Stock,
	"adaptive":     spider.Adaptive,
	"predictive":   spider.Predictive,
}

func main() {
	var (
		presetName   = flag.String("preset", "ch1-multi", "configuration: ch1-multi, ch1-single, multi-multi, multi-single, stock, adaptive")
		duration     = flag.Duration("duration", 10*time.Minute, "simulated duration")
		seed         = flag.Int64("seed", 1, "random seed")
		speed        = flag.Float64("speed", 10, "vehicle speed (m/s)")
		apsPerKm     = flag.Float64("aps-per-km", 10, "AP deployment density")
		openFraction = flag.Float64("open-fraction", 0.4, "fraction of open APs")
		channel      = flag.Uint("channel", 1, "primary channel for single-channel presets")
		verbose      = flag.Bool("v", false, "print join log")
		pcapPath     = flag.String("pcap", "", "write an on-air frame capture to this pcap file")
	)
	flag.Parse()

	preset, ok := presets[*presetName]
	if !ok {
		var names []string
		for n := range presets {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "unknown preset %q; options: %v\n", *presetName, names)
		os.Exit(2)
	}

	loop := []spider.Point{{X: 0, Y: 0}, {X: 1200, Y: 0}, {X: 1200, Y: 600}, {X: 0, Y: 600}}
	route := append(append([]spider.Point(nil), loop...), loop[0])
	deploy := spider.DefaultDeploy()
	deploy.APsPerKm = *apsPerKm
	deploy.OpenFraction = *openFraction
	sites := spider.Deploy(*seed, route, deploy)

	fmt.Printf("town: %d APs (%.0f/km, %.0f%% open), loop %.1f km, speed %.1f m/s\n",
		len(sites), *apsPerKm, *openFraction*100, 3.6, *speed)

	world := spider.WorldConfig{Seed: *seed, Duration: *duration, Sites: sites}
	client := spider.ClientConfig{
		Preset:         preset,
		PrimaryChannel: spider.Channel(*channel),
		Mobility:       spider.Route(loop, *speed, true),
	}
	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		world.PCAP = f
	}
	res := spider.Run(world, client)

	fmt.Printf("\n=== %v, %v simulated ===\n", res.Preset, res.Duration)
	fmt.Printf("throughput:    %8.1f KB/s\n", res.ThroughputKBps)
	fmt.Printf("connectivity:  %8.1f %%\n", res.Connectivity*100)
	fmt.Printf("bytes:         %8d\n", res.BytesReceived)
	fmt.Printf("links up/down: %d/%d\n", res.LinkUps, res.LinkDowns)
	fmt.Printf("joins: started=%d complete=%d assoc-fail=%d dhcp-fail=%d ping-fail=%d cache-hits=%d\n",
		res.LMM.JoinsStarted, res.LMM.JoinsComplete, res.LMM.AssocFailures,
		res.LMM.DHCPFailures, res.LMM.PingFailures, res.LMM.CacheHits)
	fmt.Printf("driver: switches=%d psm=%d polls=%d queued=%d drops=%d\n",
		res.Driver.Switches, res.Driver.PSMSent, res.Driver.PollsSent,
		res.Driver.TxQueued, res.Driver.TxQueueDrops)

	var ks []int
	for k := range res.LinkSeconds {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	fmt.Print("concurrent links: ")
	for _, k := range ks {
		fmt.Printf("%d×%ds ", k, res.LinkSeconds[k])
	}
	fmt.Println()

	if *verbose {
		fmt.Println("\njoin log:")
		for _, j := range res.Joins {
			fmt.Printf("  t=%8v %v %v %-12v assoc=%v dhcp=%v total=%v cache=%v\n",
				j.Start.Round(time.Millisecond), j.BSSID, j.Channel, j.Stage,
				j.AssocDur.Round(time.Millisecond), j.DHCPDur.Round(time.Millisecond),
				j.TotalDur.Round(time.Millisecond), j.UsedCache)
		}
	}
}
