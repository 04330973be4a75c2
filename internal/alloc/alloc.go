// Package alloc implements the proportional-fair association + airtime
// allocator that fixes the population fairness collapse: at 64 clients the
// paper's selfish utility heuristic piles every client onto the same APs
// and channels, collisions explode, and Jain fairness collapses while
// aggregate goodput drops below the 8-client figure.
//
// The allocator comes in two variants:
//
//   - Oracle: a centralized controller (wired into core) that re-solves the
//     proportional-fair association each epoch with full knowledge of every
//     client's position and every AP's channel and backhaul, using the
//     opt.SolvePF best-response solver and the phy throughput model. It
//     pins each client to its assigned AP and paces the client's flows to
//     its equal-airtime share, replacing TCP's equal-throughput outcome
//     with the PF equal-airtime one.
//
//   - Decentralized: each client's LMM runs its own Decentralized policy,
//     inferring contention purely from the carrier-sense signals the phy
//     layer exposes (cumulative channel occupancy, instantaneous
//     transmitter counts) and ranking candidate APs by estimated rate over
//     inferred load, with a deterministic per-(client, AP) preference
//     spread that keeps identical clients from herding onto one AP. No
//     client reads another client's state.
//
// Both variants are deterministic: the decentralized preference spread is
// a hash, not a random draw, so enabling allocation adds no RNG
// consumption and recorded runs stay byte-reproducible at any worker
// count.
package alloc

import (
	"spider/internal/dot11"
	"spider/internal/sim"
)

// Variant selects the allocator flavour.
type Variant uint8

const (
	// Oracle is the centralized PF allocator with full knowledge.
	Oracle Variant = iota + 1
	// Decentralized is the client-local contention-inference policy.
	Decentralized
)

func (v Variant) String() string {
	switch v {
	case Oracle:
		return "oracle"
	case Decentralized:
		return "decentralized"
	}
	return "none"
}

// Epoch is the allocation period: the oracle re-solves, and both variants
// re-pace flows, every Epoch.
const Epoch sim.Time = 1_000_000_000 // 1 s

// Headroom scales pacing targets relative to the modeled fair share. The
// share model prices data airtime only; the real channel also carries TCP
// acks, liveness pings, probes, and beacons, and collision losses compound
// with the number of stations holding committed frames — pacing at the raw
// share keeps the channel saturated and hands the surplus to the collision
// lottery. Targeting ~60% of the modeled share keeps utilization below the
// knee, where every client actually delivers its cap.
const Headroom = 0.6

// SwitchMargin is the relative gain an alternative AP must offer before
// the oracle moves a client off the AP it holds. The PF model prices
// airtime but not churn; every steer costs the client a reassociation, a
// DHCP exchange, and a TCP restart, so marginal wins must not trigger
// moves.
const SwitchMargin = 0.5

// The decentralized policy's constants.
const (
	// maxLinks caps concurrent links per allocated client: under PF
	// association a client holds its assigned AP, not every AP in range —
	// multi-AP herding is the collapse being fixed.
	maxLinks = 1
	// herdEpsilon is the deterministic preference spread: each (client,
	// AP) pair's score is scaled by a hash-derived factor in [1-ε, 1+ε],
	// so equal-rate clients fan out across equal APs instead of all
	// ranking them identically.
	herdEpsilon = 0.35
	// busyWeight converts the sensed channel busy fraction into equivalent
	// contenders in the load estimate: a fully busy channel reads as four
	// unseen rivals.
	busyWeight = 4
	// ewmaAlpha is the smoothing weight of fresh carrier-sense samples.
	ewmaAlpha = 0.3
)

// prefSpread returns the deterministic preference factor for a
// (client, BSSID) pair: an FNV-1a hash mapped into [1-ε, 1+ε]. A hash —
// not an RNG draw — so the policy consumes no randomness and two runs of
// the same population rank identically.
func prefSpread(clientID int, bssid dot11.MACAddr) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(uint32(clientID))) * prime64
	for _, b := range bssid {
		h = (h ^ uint64(b)) * prime64
	}
	// Top 53 bits -> uniform [0,1).
	u := float64(h>>11) / (1 << 53)
	return 1 + herdEpsilon*(2*u-1)
}
