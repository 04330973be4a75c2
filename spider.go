// Package spider is the public API of this repository: a from-scratch
// reproduction of "Spider: Improving Mobile Networking with Concurrent
// Wi-Fi Connections" (Soroush et al.).
//
// Spider maintains concurrent 802.11 associations from a moving vehicle by
// time-slicing a single radio across channels (not across APs), selecting
// APs by join-success history, caching DHCP leases, and shrinking join
// timeouts. This package re-exports the three layers a user composes:
//
//   - Scenario simulation: a run is a WorldConfig (the deployed APs and
//     everything else clients share) plus its ClientConfigs. Run executes
//     a world with one client (mobility, PHY, APs, DHCP, TCP) and reports
//     throughput, connectivity, and join telemetry; RunPopulation executes
//     it with any number of clients.
//   - Analytical model: JoinModel evaluates the paper's closed-form join
//     probability (Eq. 5-7) and its Monte-Carlo validator.
//   - Optimization: OptimalSchedule solves the throughput-maximization
//     problem (Eq. 8-10); the knapsack solvers back Appendix A.
//
// The full experiment harness living behind cmd/spider-bench regenerates
// every table and figure of the paper's evaluation.
package spider

import (
	"spider/internal/core"
	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/mobility"
	"spider/internal/model"
	"spider/internal/opt"
	"spider/internal/sim"
)

// Re-exported scenario types.
type (
	// WorldConfig is the shared world of a run: seed, duration, deployed
	// APs, and optional fault plan, recorder and telemetry plane.
	WorldConfig = core.WorldConfig
	// ClientConfig is one client of a run: its preset, timers and route.
	ClientConfig = core.ClientConfig
	// Result is a run's measurements.
	Result = core.Result
	// PopulationResult aggregates an N-client run.
	PopulationResult = core.PopulationResult
	// Preset selects one of the paper's configurations.
	Preset = core.Preset
	// TimerProfile groups the join timeout knobs.
	TimerProfile = core.TimerProfile
	// APSite is one deployed access point.
	APSite = mobility.APSite
	// DeployConfig controls roadside AP placement.
	DeployConfig = mobility.DeployConfig
	// Point is a map position in metres.
	Point = geo.Point
	// Channel is an 802.11 channel number.
	Channel = dot11.Channel
	// Time is a simulated duration (an alias of time.Duration).
	Time = sim.Time
)

// The evaluated configurations.
const (
	SingleChannelMultiAP  = core.SingleChannelMultiAP
	SingleChannelSingleAP = core.SingleChannelSingleAP
	MultiChannelMultiAP   = core.MultiChannelMultiAP
	MultiChannelSingleAP  = core.MultiChannelSingleAP
	Stock                 = core.Stock
	Adaptive              = core.Adaptive
	Predictive            = core.Predictive
)

// The orthogonal 2.4 GHz channels.
const (
	Channel1  = dot11.Channel1
	Channel6  = dot11.Channel6
	Channel11 = dot11.Channel11
)

// Run executes a world with one client to completion; it is deterministic
// in world.Seed.
func Run(world WorldConfig, client ClientConfig) Result { return core.Run(world, client) }

// RunPopulation executes one shared world traversed by N clients and
// returns per-client results plus population aggregates (goodput
// distribution, Jain's fairness index, DHCP pool pressure). Deterministic
// in world.Seed and the client ID set — client order never matters.
func RunPopulation(world WorldConfig, clients []ClientConfig) PopulationResult {
	return core.RunPopulation(world, clients)
}

// ReducedTimers returns Spider's tuned join-timeout profile.
func ReducedTimers() TimerProfile { return core.ReducedTimers() }

// DefaultTimers returns a stock network stack's profile.
func DefaultTimers() TimerProfile { return core.DefaultTimers() }

// StaticClient returns a stationary mobility model (indoor experiments).
func StaticClient(p Point) mobility.Model { return mobility.Static(p) }

// Route returns a constant-speed waypoint route; loop closes it.
func Route(points []Point, speedMps float64, loop bool) mobility.Model {
	return mobility.NewWaypoints(points, speedMps, loop)
}

// Deploy places APs along a route with Poisson spacing; see
// mobility.DeployAlongRoute.
func Deploy(seed int64, route []Point, cfg DeployConfig) []APSite {
	return mobility.DeployAlongRoute(sim.NewRNG(seed), route, cfg)
}

// DefaultDeploy matches the paper's measured town (channel mix, density,
// open fraction).
func DefaultDeploy() DeployConfig { return mobility.DefaultDeployConfig() }

// JoinModel is the analytical join model of Eq. 5-7.
type JoinModel = model.Params

// PaperJoinModel returns the parameterization behind the paper's Figure 2.
func PaperJoinModel(betaMax Time) JoinModel { return model.PaperParams(betaMax) }

// ChannelInput describes one channel for the schedule optimizer.
type ChannelInput = opt.ChannelInput

// ScheduleProblem is the throughput-maximization instance of Eq. 8-10.
type ScheduleProblem = opt.Problem

// ScheduleSolution is an optimal channel schedule.
type ScheduleSolution = opt.Solution

// OptimalSchedule solves the throughput maximization at the given fraction
// granularity.
func OptimalSchedule(p ScheduleProblem, step float64) ScheduleSolution { return p.Solve(step) }

// DividingSpeed finds the speed above which a single channel is optimal.
func DividingSpeed(m JoinModel, bw float64, channels []ChannelInput, radioRange, minSpeed, maxSpeed, speedStep, fracStep float64) float64 {
	return opt.DividingSpeed(m, bw, channels, radioRange, minSpeed, maxSpeed, speedStep, fracStep)
}
