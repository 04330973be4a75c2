// Command spider-pcap summarizes a frame capture produced by
// spider-sim -pcap (or any core.WorldConfig.PCAP writer): frame counts
// by type, top transmitters, retry fraction, and the capture's time span.
//
// Usage:
//
//	spider-sim -duration 1m -pcap run.pcap
//	spider-pcap run.pcap
package main

import (
	"fmt"
	"os"
	"sort"

	"spider/internal/capture"
	"spider/internal/dot11"
	"spider/internal/sim"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: spider-pcap <file.pcap>")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	pkts, err := capture.ReadAll(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(pkts) == 0 {
		fmt.Println("empty capture")
		return
	}

	byType := map[dot11.FrameType]int{}
	bySender := map[dot11.MACAddr]int{}
	bytesBySender := map[dot11.MACAddr]int{}
	retries, undecodable, totalBytes := 0, 0, 0
	var first, last sim.Time
	first = pkts[0].At
	for _, p := range pkts {
		last = p.At
		fr, err := dot11.Decode(p.Data)
		if err != nil {
			undecodable++
			continue
		}
		byType[fr.Type]++
		bySender[fr.Addr2]++
		bytesBySender[fr.Addr2] += len(p.Data)
		totalBytes += len(p.Data)
		if fr.Retry {
			retries++
		}
	}

	span := (last - first).Seconds()
	fmt.Printf("capture: %d frames, %.1f KiB over %.1fs (%.1f frames/s)\n",
		len(pkts), float64(totalBytes)/1024, span, float64(len(pkts))/max(span, 1e-9))
	if undecodable > 0 {
		fmt.Printf("undecodable: %d\n", undecodable)
	}
	fmt.Printf("retries: %d (%.1f%%)\n", retries, 100*float64(retries)/float64(len(pkts)))

	fmt.Println("\nframes by type:")
	var types []dot11.FrameType
	for t := range byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return byType[types[i]] > byType[types[j]] })
	for _, t := range types {
		fmt.Printf("  %-12v %8d\n", t, byType[t])
	}

	fmt.Println("\ntop transmitters:")
	var senders []dot11.MACAddr
	for s := range bySender {
		senders = append(senders, s)
	}
	sort.Slice(senders, func(i, j int) bool {
		if bySender[senders[i]] != bySender[senders[j]] {
			return bySender[senders[i]] > bySender[senders[j]]
		}
		return senders[i].String() < senders[j].String()
	})
	for i, s := range senders {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(senders)-10)
			break
		}
		fmt.Printf("  %v  %8d frames  %8.1f KiB\n", s, bySender[s], float64(bytesBySender[s])/1024)
	}
}
