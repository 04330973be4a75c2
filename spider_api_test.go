package spider_test

import (
	"testing"
	"time"

	"spider"
)

// TestPublicAPIQuickstart runs the README's quickstart flow through the
// public API only.
func TestPublicAPIQuickstart(t *testing.T) {
	sites := []spider.APSite{{
		Pos: spider.Point{X: 200, Y: 20}, Channel: spider.Channel1,
		SSID: "cafe", Open: true, BackhaulBps: 2e6,
	}}
	res := spider.Run(
		spider.WorldConfig{Seed: 42, Duration: 90 * time.Second, Sites: sites},
		spider.ClientConfig{
			Preset:   spider.SingleChannelMultiAP,
			Mobility: spider.Route([]spider.Point{{X: 0, Y: 0}, {X: 1000, Y: 0}}, 10, false),
		})
	if res.BytesReceived == 0 || res.LinkUps == 0 {
		t.Fatalf("quickstart produced nothing: %+v", res)
	}
}

func TestPublicAPIDeploy(t *testing.T) {
	route := []spider.Point{{X: 0, Y: 0}, {X: 5000, Y: 0}}
	sites := spider.Deploy(1, route, spider.DefaultDeploy())
	if len(sites) < 50 {
		t.Fatalf("deployed %d APs on 5 km at default density", len(sites))
	}
	again := spider.Deploy(1, route, spider.DefaultDeploy())
	for i := range sites {
		if sites[i] != again[i] {
			t.Fatal("Deploy not deterministic in its seed")
		}
	}
}

func TestPublicAPIModel(t *testing.T) {
	m := spider.PaperJoinModel(5 * time.Second)
	p := m.JoinProbability(0.3, 4*time.Second)
	if p < 0.7 || p > 0.8 {
		t.Fatalf("p(0.3, 4s) = %v, want the paper's ≈0.75", p)
	}
	sol := spider.OptimalSchedule(spider.ScheduleProblem{
		Model: spider.PaperJoinModel(10 * time.Second),
		Bw:    11e6, T: 10 * time.Second,
		Channels: []spider.ChannelInput{{Joined: 0.75 * 11e6}, {Available: 0.25 * 11e6}},
	}, 0.05)
	if sol.TotalBps <= 0 {
		t.Fatal("optimizer returned nothing")
	}
	div := spider.DividingSpeed(spider.PaperJoinModel(10*time.Second), 11e6,
		[]spider.ChannelInput{{Joined: 0.75 * 11e6}, {Available: 0.25 * 11e6}},
		100, 2.5, 25, 2.5, 0.05)
	if div < 2.5 || div > 15 {
		t.Fatalf("dividing speed = %v, want near the paper's ≈10 m/s", div)
	}
}

func TestPublicAPITimers(t *testing.T) {
	r := spider.ReducedTimers()
	d := spider.DefaultTimers()
	if r.LLTimeout >= d.LLTimeout {
		t.Fatal("reduced link-layer timeout not shorter than default")
	}
	if !r.UseLeaseCache || d.UseLeaseCache {
		t.Fatal("lease cache settings inverted")
	}
	if r.FailureBackoff >= d.FailureBackoff {
		t.Fatal("reduced backoff not shorter")
	}
}

// TestPublicAPIPopulation drives the N-client entry point: two clients on
// one corridor, with aggregates consistent with the per-client results.
func TestPublicAPIPopulation(t *testing.T) {
	sites := []spider.APSite{{
		Pos: spider.Point{X: 200, Y: 20}, Channel: spider.Channel1,
		SSID: "cafe", Open: true, BackhaulBps: 2e6,
	}}
	route := spider.Route([]spider.Point{{X: 0, Y: 0}, {X: 1000, Y: 0}}, 10, false)
	pop := spider.RunPopulation(
		spider.WorldConfig{Seed: 42, Duration: 90 * time.Second, Sites: sites},
		[]spider.ClientConfig{
			{ID: 0, Preset: spider.SingleChannelMultiAP, Mobility: route},
			{ID: 1, Preset: spider.SingleChannelMultiAP, Mobility: route, StartOffset: 3 * time.Second},
		})
	if len(pop.Clients) != 2 {
		t.Fatalf("clients = %d", len(pop.Clients))
	}
	sum := pop.Clients[0].ThroughputKBps + pop.Clients[1].ThroughputKBps
	if pop.AggregateKBps != sum {
		t.Fatalf("aggregate %g != sum of per-client %g", pop.AggregateKBps, sum)
	}
	if pop.AggregateKBps <= 0 {
		t.Fatal("population moved no data")
	}
	if pop.JainFairness <= 0 || pop.JainFairness > 1 {
		t.Fatalf("fairness %g outside (0,1]", pop.JainFairness)
	}
}

func TestPublicAPIStatic(t *testing.T) {
	m := spider.StaticClient(spider.Point{X: 5, Y: 5})
	if m.PositionAt(0) != m.PositionAt(time.Hour) || m.Speed() != 0 {
		t.Fatal("StaticClient moved")
	}
}
