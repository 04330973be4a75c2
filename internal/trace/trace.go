// Package trace synthesizes the mesh-user workload of Section 4.7. The
// paper instrumented a 25-node downtown mesh for a day (161 users, 128,587
// TCP connections) and compared users' flow durations and inter-connection
// gaps against what Spider sustains. The raw trace is not public, so this
// package generates a workload whose distributions match the published
// CDFs: heavy-tailed flow durations mostly under 10 s, and inter-connection
// gaps mostly under a minute.
package trace

import (
	"math"

	"spider/internal/sim"
)

// MeshConfig parameterizes the synthetic mesh-user trace.
type MeshConfig struct {
	// Users is the number of distinct wireless users (paper: 161).
	Users int
	// Flows is the total TCP connection count (paper: 128,587).
	Flows int
	// DurMedian and DurSigma shape the lognormal flow-duration
	// distribution (median ≈ 2 s with a heavy tail in the paper's CDF).
	DurMedian float64 // seconds
	DurSigma  float64
	// GapMedian and GapSigma shape the lognormal inter-connection gaps
	// (median ≈ 10 s, tail to several minutes).
	GapMedian float64 // seconds
	GapSigma  float64
	// MaxDuration and MaxGap truncate the tails, as a one-day capture
	// necessarily does.
	MaxDuration float64
	MaxGap      float64
}

// DefaultMeshConfig matches the published study's scale and CDF shapes.
func DefaultMeshConfig() MeshConfig {
	return MeshConfig{
		Users:       161,
		Flows:       128587,
		DurMedian:   2.0,
		DurSigma:    1.4,
		GapMedian:   10.0,
		GapSigma:    1.3,
		MaxDuration: 600,
		MaxGap:      600,
	}
}

// MeshTrace is the synthesized workload.
type MeshTrace struct {
	// FlowDurations holds every TCP connection's duration in seconds
	// (Figure 16's user series).
	FlowDurations []float64
	// InterConnectionGaps holds the idle time between a user's
	// consecutive connections in seconds (Figure 17's user series).
	InterConnectionGaps []float64
}

// Synthesize generates the trace deterministically from rng.
func Synthesize(rng *sim.RNG, cfg MeshConfig) MeshTrace {
	if cfg.Users <= 0 || cfg.Flows <= 0 {
		panic("trace: Synthesize needs users and flows")
	}
	// One gap per flow beyond each user's first; with fewer flows than
	// users no gaps exist, so the capacity clamps to zero rather than
	// passing a negative value to make (which panics).
	gapCap := cfg.Flows - cfg.Users
	if gapCap < 0 {
		gapCap = 0
	}
	t := MeshTrace{
		FlowDurations:       make([]float64, 0, cfg.Flows),
		InterConnectionGaps: make([]float64, 0, gapCap),
	}
	perUser := cfg.Flows / cfg.Users
	extra := cfg.Flows % cfg.Users
	for u := 0; u < cfg.Users; u++ {
		n := perUser
		if u < extra {
			n++
		}
		for f := 0; f < n; f++ {
			d := lognormal(rng, cfg.DurMedian, cfg.DurSigma)
			if d > cfg.MaxDuration {
				d = cfg.MaxDuration
			}
			t.FlowDurations = append(t.FlowDurations, d)
			if f > 0 {
				g := lognormal(rng, cfg.GapMedian, cfg.GapSigma)
				if g > cfg.MaxGap {
					g = cfg.MaxGap
				}
				t.InterConnectionGaps = append(t.InterConnectionGaps, g)
			}
		}
	}
	return t
}

// lognormal samples exp(N(ln(median), sigma²)).
func lognormal(rng *sim.RNG, median, sigma float64) float64 {
	return math.Exp(math.Log(median) + sigma*rng.NormFloat64())
}
