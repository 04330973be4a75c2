package opt

import "math"

// This file implements the proportional-fair association problem the
// fairness allocator (internal/alloc) solves each epoch: N clients, A APs,
// per-pair modeled rates, pick one AP per client so the product of
// delivered throughputs is maximized under equal-airtime sharing.
//
// The throughput model has two shared resources. Each 802.11 channel is a
// single collision domain whose transmissions serialize (see internal/phy),
// so a client assigned to an AP on channel j receives an equal airtime
// share 1/n_j of that channel and delivers r·(1/n_j) where r is its own
// PHY rate — equal airtime, not equal throughput, which is exactly the PF
// allocation for log utilities at one rate per client (Liew & Zhang). An
// AP's backhaul caps its aggregate at CapacityBps, split evenly across its
// n_a stations. A client on AP a (channel j) therefore delivers
//
//	v(c,a) = min( RateBps[c][a] / n_j , CapacityBps[a] / n_a ).
//
// The solver runs deterministic best-response sweeps: clients in index
// order repeatedly move to the AP maximizing their own v given everyone
// else's assignment. Load appears in every rival's denominator, so best
// responses spread clients across APs and channels; the sweep is the
// classic distributed approximation of the PF optimum and converges (or is
// cut off by pfMaxPasses) in a handful of passes. Everything iterates in
// index order with strict tie-breaks, so the solution is a pure function
// of the problem.

// PFAP describes one AP of a proportional-fair association problem.
type PFAP struct {
	// Channel is the AP's 802.11 channel; APs sharing a channel share one
	// collision domain.
	Channel int
	// CapacityBps caps the AP's aggregate delivered rate (its backhaul);
	// <= 0 means unlimited.
	CapacityBps float64
}

// PFProblem is one association instance.
type PFProblem struct {
	APs []PFAP
	// RateBps[c][a] is client c's modeled PHY goodput toward AP a in
	// bits/s; <= 0 marks the AP unreachable for that client.
	RateBps [][]float64
	// Initial, when non-empty, seeds the assignment with a previous
	// solution (-1 = unassigned) — the hysteresis that keeps an epoch
	// re-solve from flapping equal-value clients between APs.
	Initial []int
	// SwitchMargin, when positive, is the relative gain an alternative AP
	// must offer before a client abandons one it currently holds (0.5 =
	// "only move for 50% more"). The model prices airtime but not churn:
	// in the real system every reassignment costs a reassociation, a DHCP
	// exchange, and a TCP restart, so epoch re-solves without a margin
	// flap clients between near-equal APs and burn the gain. Zero keeps
	// pure best-response.
	SwitchMargin float64
}

// PFSolution is the solved association.
type PFSolution struct {
	// Assign[c] is client c's AP index, -1 when no AP is reachable.
	Assign []int
	// ThroughputBps[c] is the modeled delivered rate under the equal-
	// airtime / equal-backhaul-split sharing model.
	ThroughputBps []float64
	// Objective is Σ ln(ThroughputBps) over served clients — the PF
	// objective the best-response sweep approximately maximizes.
	Objective float64
}

// pfState carries the mutable load counts of a solve.
type pfState struct {
	p      PFProblem
	assign []int
	nAP    []int         // stations per AP
	nCh    [16]int       // stations per channel 0..15 (802.11 channels)
	chOf   func(int) int // AP index -> bounded channel index
}

// value returns client c's delivered rate on AP a given the counts in s,
// counting c as present on a (callers remove c from its old AP first).
func (s *pfState) value(c, a int) float64 {
	r := s.p.RateBps[c][a]
	if r <= 0 {
		return 0
	}
	v := r / float64(s.nCh[s.chOf(a)]+1)
	if cap := s.p.APs[a].CapacityBps; cap > 0 {
		if b := cap / float64(s.nAP[a]+1); b < v {
			v = b
		}
	}
	return v
}

func (s *pfState) add(c, a int) {
	s.assign[c] = a
	s.nAP[a]++
	s.nCh[s.chOf(a)]++
}

func (s *pfState) remove(c int) {
	a := s.assign[c]
	if a < 0 {
		return
	}
	s.assign[c] = -1
	s.nAP[a]--
	s.nCh[s.chOf(a)]--
}

// pfMaxPasses bounds the best-response sweeps.
const pfMaxPasses = 8

// SolvePF solves the association by deterministic best-response sweeps.
func SolvePF(p PFProblem) PFSolution {
	n := len(p.RateBps)
	sol := PFSolution{Assign: make([]int, n), ThroughputBps: make([]float64, n)}
	if n == 0 || len(p.APs) == 0 {
		return sol
	}
	// Channels outside [0,15] (not 802.11, but the types allow it) fold
	// onto one bucket; they still share fairly, just with each other.
	chOf := func(a int) int {
		ch := p.APs[a].Channel
		if ch < 0 || ch > 15 {
			return 0
		}
		return ch
	}
	s := &pfState{p: p, assign: sol.Assign, nAP: make([]int, len(p.APs)), chOf: chOf}
	for c := range s.assign {
		s.assign[c] = -1
	}
	// Seed: the previous epoch's assignment where given and still
	// reachable, so an unchanged world re-solves to an unchanged answer.
	for c := 0; c < n && c < len(p.Initial); c++ {
		if a := p.Initial[c]; a >= 0 && a < len(p.APs) && p.RateBps[c][a] > 0 {
			s.add(c, a)
		}
	}

	// Best-response sweeps in client index order. A client moves only for
	// a strict relative improvement — and, when it already holds a
	// reachable AP, only past the switch margin — so equal-value options
	// never oscillate and a fixpoint is a pure function of the inputs.
	const improve = 1 + 1e-9
	stick := improve
	if p.SwitchMargin > 0 {
		stick = 1 + p.SwitchMargin
	}
	for pass := 0; pass < pfMaxPasses; pass++ {
		changed := false
		for c := 0; c < n; c++ {
			cur := s.assign[c]
			s.remove(c)
			curV := 0.0
			if cur >= 0 {
				curV = s.value(c, cur)
			}
			best, bestV := -1, 0.0
			for a := range p.APs {
				if a == cur {
					continue
				}
				if v := s.value(c, a); v > bestV*improve {
					best, bestV = a, v
				}
			}
			switch {
			case curV > 0 && (best < 0 || bestV <= curV*stick):
				// Keep the held AP: no alternative clears the margin.
				s.add(c, cur)
			case best >= 0 && bestV > 0:
				s.add(c, best)
				changed = true
			case cur >= 0:
				// Previously assigned AP became unreachable and nothing
				// else is in range.
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Final exact evaluation under the settled loads.
	for c := 0; c < n; c++ {
		a := s.assign[c]
		if a < 0 {
			continue
		}
		v := s.p.RateBps[c][a] / float64(s.nCh[chOf(a)])
		if cap := p.APs[a].CapacityBps; cap > 0 {
			if b := cap / float64(s.nAP[a]); b < v {
				v = b
			}
		}
		sol.ThroughputBps[c] = v
		if v > 0 {
			sol.Objective += math.Log(v)
		}
	}
	return sol
}
