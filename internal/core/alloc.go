package core

import (
	"fmt"
	"sort"

	"spider/internal/alloc"
	"spider/internal/dot11"
	"spider/internal/driver"
	"spider/internal/ipnet"
	"spider/internal/obs"
	"spider/internal/opt"
	"spider/internal/phy"
)

// allocController drives the fairness allocator over a live scenario. One
// controller per scenario, ticking every alloc.Epoch:
//
//   - Oracle: re-solves the proportional-fair association (opt.SolvePF)
//     with full knowledge of client positions, AP channels, backhauls, and
//     crash state; pins each client's LMM to its assigned AP and paces its
//     flows to the modeled equal-airtime share.
//
//   - Decentralized: association is already handled inside each client's
//     LMM by its alloc.Policy; the controller only re-paces each client's
//     flows to the policy's self-inferred share, exactly as a client-local
//     daemon would.
//
// Everything iterates clients in materialization order and flows in
// address order, so an epoch is a pure function of the world state.
type allocController struct {
	s *Scenario

	// Previous decision per client ID: assignment hysteresis for the PF
	// solver and change-detection for event emission and re-scheduling.
	lastAP   map[int]int
	lastPace map[int]float64
	lastCh   map[int]dot11.Channel

	// Scratch reused across epochs to keep the steady-state tick from
	// allocating.
	prob    opt.PFProblem
	active  []*Client
	ipOrder []ipnet.Addr
}

func newAllocController(s *Scenario) *allocController {
	return &allocController{
		s:        s,
		lastAP:   make(map[int]int),
		lastPace: make(map[int]float64),
		lastCh:   make(map[int]dot11.Channel),
	}
}

func (a *allocController) epoch() {
	switch a.s.cfg.Alloc {
	case alloc.Oracle:
		a.oracleEpoch()
	case alloc.Decentralized:
		a.decentralizedEpoch()
	default:
		return
	}
	a.applyPacing()
}

// liveClients collects the clients whose stacks exist right now, in the
// scenario's deterministic materialization order.
func (a *allocController) liveClients() []*Client {
	cs := a.active[:0]
	for _, c := range a.s.clients {
		if c.manager != nil {
			cs = append(cs, c)
		}
	}
	a.active = cs
	return cs
}

// oracleEpoch re-solves the PF association and steers every live client.
func (a *allocController) oracleEpoch() {
	s := a.s
	clients := a.liveClients()
	if len(clients) == 0 {
		return
	}

	// Problem snapshot: one AP per site (Sites order matches apList), one
	// rate row per live client. An AP a client cannot use right now — out
	// of schedule, crashed, closed, or known-broken (the oracle has full
	// knowledge, including DHCP-dead and captive sites) — is marked
	// unreachable with a zero rate.
	aps := a.prob.APs[:0]
	for i, site := range s.cfg.Sites {
		aps = append(aps, opt.PFAP{
			Channel:     int(s.apList[i].Channel()),
			CapacityBps: site.BackhaulBps,
		})
	}
	a.prob.APs = aps
	if cap(a.prob.RateBps) < len(clients) {
		a.prob.RateBps = make([][]float64, len(clients))
	}
	a.prob.RateBps = a.prob.RateBps[:len(clients)]
	if cap(a.prob.Initial) < len(clients) {
		a.prob.Initial = make([]int, len(clients))
	}
	a.prob.Initial = a.prob.Initial[:len(clients)]

	for ci, c := range clients {
		row := a.prob.RateBps[ci]
		if cap(row) < len(aps) {
			row = make([]float64, len(aps))
		}
		row = row[:len(aps)]
		pos := c.pos()
		for i, site := range s.cfg.Sites {
			switch {
			case !site.Open, site.DHCPDead, site.Captive,
				s.apList[i].Crashed():
				row[i] = 0
			default:
				row[i] = phy.ExpectedThroughput(pos.Distance(site.Pos))
			}
		}
		a.prob.RateBps[ci] = row
		if prev, ok := a.lastAP[c.id]; ok {
			a.prob.Initial[ci] = prev
		} else {
			a.prob.Initial[ci] = -1
		}
	}

	a.prob.SwitchMargin = alloc.SwitchMargin
	sol := opt.SolvePF(a.prob)

	// Per-AP and per-channel station counts under the solved assignment:
	// a client alone on both its AP and its channel has nobody to share
	// with and runs unpaced — pacing exists to hold a fair share, not to
	// tax an uncontended link.
	var chCount [16]int
	apCount := make([]int, len(aps))
	for _, apIdx := range sol.Assign {
		if apIdx >= 0 {
			apCount[apIdx]++
			if ch := aps[apIdx].Channel; ch >= 0 && ch < 16 {
				chCount[ch]++
			}
		}
	}

	now := s.eng.Now()
	moves := 0
	for ci, c := range clients {
		apIdx := sol.Assign[ci]
		var target dot11.MACAddr
		var ch dot11.Channel
		pace := 0.0
		if apIdx >= 0 {
			target = s.apList[apIdx].BSSID()
			ch = s.apList[apIdx].Channel()
			pace = alloc.Headroom * sol.ThroughputBps[ci]
			if apCount[apIdx] == 1 && int(ch) < 16 && chCount[ch] == 1 {
				pace = 0
			}
			// The oracle owns the client's airtime, schedule included:
			// camp the radio on the assigned AP's channel. A rotating
			// multi-channel schedule would leave the client off-channel
			// two slots out of three — airtime the allocation already
			// granted to someone on another channel.
			if prev, ok := a.lastCh[c.id]; !ok || prev != ch {
				c.manager.SetSchedule([]driver.Slot{{Channel: ch}})
				a.lastCh[c.id] = ch
			}
		}
		c.manager.SetAllocTarget(target)
		prevAP, seen := a.lastAP[c.id]
		changed := !seen || prevAP != apIdx || paceChanged(a.lastPace[c.id], pace)
		if seen && prevAP != apIdx {
			moves++
		}
		a.lastAP[c.id] = apIdx
		a.lastPace[c.id] = pace
		c.allocPace = pace
		if changed && c.events.Enabled() {
			c.events.Emit(obs.Event{
				At:      now,
				Kind:    obs.KindAllocAssign,
				BSSID:   target.String(),
				Channel: int(ch),
				Value:   int64(pace),
				Note:    "oracle",
			})
		}
	}
	// One world span tile per epoch summarizing how much the solution
	// moved — the frontier experiments read these to see steering churn.
	if sp := s.cfg.Obs.World().StartSpan(now-alloc.Epoch, "alloc"); sp != nil {
		sp.SetStatus(fmt.Sprintf("oracle n=%d moved=%d", len(clients), moves))
		sp.End(now)
	}
}

// decentralizedEpoch re-paces each client's flows from its own policy's
// inferred fair share. Association is the policy's job inside the LMM;
// only pacing needs the flow map, which lives up here.
func (a *allocController) decentralizedEpoch() {
	s := a.s
	now := s.eng.Now()
	for _, c := range a.liveClients() {
		if c.allocPol == nil {
			continue
		}
		links := c.manager.ActiveLinks()
		if len(links) == 0 {
			c.allocPace = 0
			continue
		}
		l := links[0]
		rssi, ok := scanRSSI(c.drv, l.BSSID)
		if !ok {
			continue // AP fell out of the scan table; keep the last pace
		}
		pace := c.allocPol.PaceBps(l.VIF.Channel(), rssi)
		if paceChanged(a.lastPace[c.id], pace) && c.events.Enabled() {
			c.events.Emit(obs.Event{
				At:      now,
				Kind:    obs.KindAllocAssign,
				BSSID:   l.BSSID.String(),
				Channel: int(l.VIF.Channel()),
				Value:   int64(pace),
				Note:    "decentralized",
			})
		}
		a.lastPace[c.id] = pace
		c.allocPace = pace
	}
}

// applyPacing pushes every client's current pace onto its live senders,
// walking flows in address order so the (rarely taken) wake-a-stalled-
// sender path fires in a deterministic sequence.
func (a *allocController) applyPacing() {
	s := a.s
	ips := a.ipOrder[:0]
	for ip := range s.flows {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	a.ipOrder = ips
	for _, ip := range ips {
		c := s.byID[serverIPOwner(ip)]
		if c == nil {
			continue
		}
		s.flows[ip].snd.SetPaceBps(c.allocPace)
	}
}

// paceChanged reports a materially different pacing target (>1% relative,
// or appearing/vanishing) — the event-dedup threshold.
func paceChanged(prev, next float64) bool {
	if prev == next {
		return false
	}
	if prev <= 0 || next <= 0 {
		return true
	}
	d := next - prev
	if d < 0 {
		d = -d
	}
	return d > prev/100
}

// scanRSSI finds the driver's current RSSI reading toward a BSSID.
func scanRSSI(d *driver.Driver, bssid dot11.MACAddr) (float64, bool) {
	for _, e := range d.ScanTable() {
		if e.BSSID == bssid {
			return e.RSSI, true
		}
	}
	return 0, false
}
