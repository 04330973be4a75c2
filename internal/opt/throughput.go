// Package opt implements the paper's throughput-maximization framework
// (Section 2.1.3, Equations 8-10) and the Appendix A multi-AP selection
// problem with its exact and heuristic solvers.
package opt

import (
	"spider/internal/model"
	"spider/internal/sim"
)

// ChannelInput describes one channel's bandwidth situation, in bits/s.
type ChannelInput struct {
	// Joined is B_j: end-to-end bandwidth from APs already joined.
	Joined float64
	// Available is B_a: bandwidth from APs still being joined, usable
	// only for the expected fraction of residence time after the join.
	Available float64
}

// Problem is one instance of the optimization.
type Problem struct {
	// Model supplies p(f_i, t) and E[X_i], the latter as
	// model.CorrelatedJoinFraction, which treats an AP's response time β
	// as fixed per visit and so reproduces the paper's dividing speed.
	Model model.Params
	// Bw is the wireless channel bandwidth in bits/s (paper: 11 Mbit/s).
	Bw float64
	// T is the AP residence time (range crossing at the node's speed).
	T sim.Time
	// Channels are the competing channels.
	Channels []ChannelInput
}

// Solution is an optimal schedule.
type Solution struct {
	// F is the optimal fraction of each period per channel.
	F []float64
	// PerChannelBps is the extracted bandwidth per channel, f_i·Bw
	// clipped by the constraint.
	PerChannelBps []float64
	// TotalBps is the aggregate.
	TotalBps float64
}

// Solve grid-searches the feasible schedule space at the given fraction
// step (e.g. 0.01). It honours both constraints: per-channel bandwidth
// availability (Eq. 9, with the join-time discount on unjoined bandwidth)
// and the schedule budget Σ(f_i·D + ⌈f_i⌉·w) ≤ D (Eq. 10).
func (p Problem) Solve(step float64) Solution {
	if step <= 0 || step > 1 {
		panic("opt: Solve needs 0 < step <= 1")
	}
	if p.Bw <= 0 || len(p.Channels) == 0 {
		panic("opt: Solve needs Bw and channels")
	}
	n := len(p.Channels)

	// Per-channel upper bound on f from Eq. 9, precomputed per grid value
	// because E[X_i] depends on f_i.
	steps := int(1/step) + 1
	fmaxAt := make([][]float64, n) // fmaxAt[i][k]: utility of f=k·step on channel i
	for i, ch := range p.Channels {
		fmaxAt[i] = make([]float64, steps)
		for k := 0; k < steps; k++ {
			f := float64(k) * step
			ex := p.Model.CorrelatedJoinFraction(f, p.T)
			// Attained bandwidth: schedule share, clipped by what the
			// channel can deliver (joined APs plus the join-discounted
			// unjoined ones). Unlike a hard feasibility cut, clipping
			// lets the solver leave surplus airtime idle on a channel
			// that cannot use it.
			attained := f * p.Bw
			if rhs := ch.Joined + (1-ex)*ch.Available; attained > rhs {
				attained = rhs
			}
			if attained < 0 {
				attained = 0
			}
			fmaxAt[i][k] = attained
		}
	}

	d := float64(p.Model.D)
	w := float64(p.Model.W)
	best := Solution{F: make([]float64, n), PerChannelBps: make([]float64, n)}
	cur := make([]int, n)
	var rec func(i int, budget float64, total float64)
	rec = func(i int, budget float64, total float64) {
		if i == n {
			if total > best.TotalBps {
				best.TotalBps = total
				for j, k := range cur {
					best.F[j] = float64(k) * step
					best.PerChannelBps[j] = fmaxAt[j][k]
					if best.PerChannelBps[j] < 0 {
						best.PerChannelBps[j] = 0
					}
				}
			}
			return
		}
		for k := 0; k < steps; k++ {
			gain := fmaxAt[i][k]
			f := float64(k) * step
			cost := f * d
			if k > 0 {
				cost += w
			}
			if cost > budget {
				break
			}
			cur[i] = k
			rec(i+1, budget-cost, total+gain)
		}
		cur[i] = 0
	}
	rec(0, d, 0)
	return best
}

// DividingSpeed returns the lowest speed (m/s) in [minSpeed, maxSpeed], at
// the given granularity, above which the optimal schedule extracts nothing
// from any channel beyond the best one — the paper's "dividing speed"
// (~10 m/s). The residence time is 2·radioRange/speed.
func DividingSpeed(m model.Params, bw float64, channels []ChannelInput, radioRange float64, minSpeed, maxSpeed, speedStep, fracStep float64) float64 {
	for v := minSpeed; v <= maxSpeed; v += speedStep {
		T := sim.Time(2 * radioRange / v * 1e9)
		sol := Problem{Model: m, Bw: bw, T: T, Channels: channels}.Solve(fracStep)
		if singleChannelOptimal(sol, bw) {
			return v
		}
	}
	return maxSpeed
}

// singleChannelOptimal reports whether at most one channel extracts a
// meaningful share (≥5% of the wireless bandwidth).
func singleChannelOptimal(s Solution, bw float64) bool {
	meaningful := 0
	for _, b := range s.PerChannelBps {
		if b >= 0.05*bw {
			meaningful++
		}
	}
	return meaningful <= 1
}
