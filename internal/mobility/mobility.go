// Package mobility provides the client motion models and roadside AP
// deployments for the outdoor experiments: straight roads, looping town
// routes, and Poisson AP placement with the channel mix the paper measured
// (28% on channel 1, 33% on 6, 34% on 11, the rest elsewhere).
package mobility

import (
	"fmt"
	"math"

	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/sim"
)

// Model yields a position for any virtual time.
type Model interface {
	// PositionAt returns the position at time t.
	PositionAt(t sim.Time) geo.Point
	// Speed returns the nominal speed in m/s (0 for stationary).
	Speed() float64
	// StillFrom returns the earliest time from which PositionAt returns one
	// fixed point: 0 for a stationary model, the arrival time of a route
	// that parks, and sim.Infinity for one that never stops. A radio
	// reads its position once from then on and keeps it, so an early
	// value freezes a moving radio.
	StillFrom() sim.Time
}

// static is a stationary model.
type static struct{ p geo.Point }

func (s static) PositionAt(sim.Time) geo.Point { return s.p }
func (s static) Speed() float64                { return 0 }
func (s static) StillFrom() sim.Time           { return 0 }

// Static returns a stationary model at p, used for the indoor experiments.
func Static(p geo.Point) Model { return static{p} }

// Waypoints moves at constant speed along a piecewise-linear route,
// optionally looping back to the start.
type Waypoints struct {
	pts   []geo.Point
	cum   []float64 // cumulative length up to each point
	total float64
	speed float64
	loop  bool
	still sim.Time // StillFrom, fixed at construction
}

// NewWaypoints builds a route through pts at the given speed in m/s. With
// loop set, the route closes back to pts[0] and repeats forever; otherwise
// the model parks at the final point. It panics where BuildWaypoints
// returns an error, so it suits routes written in code.
func NewWaypoints(pts []geo.Point, speed float64, loop bool) *Waypoints {
	w, err := BuildWaypoints(pts, speed, loop)
	if err != nil {
		panic(err.Error())
	}
	return w
}

// BuildWaypoints is NewWaypoints for routes read from input: it refuses
// fewer than two points, a speed that is not positive, and a route whose
// length is zero or not finite.
func BuildWaypoints(pts []geo.Point, speed float64, loop bool) (*Waypoints, error) {
	if len(pts) < 2 {
		return nil, fmt.Errorf("mobility: route needs at least two points")
	}
	if !(speed > 0) {
		return nil, fmt.Errorf("mobility: route needs positive speed")
	}
	w := &Waypoints{pts: append([]geo.Point(nil), pts...), speed: speed, loop: loop}
	if loop && pts[len(pts)-1] != pts[0] {
		w.pts = append(w.pts, pts[0])
	}
	w.cum = make([]float64, len(w.pts))
	for i := 1; i < len(w.pts); i++ {
		w.cum[i] = w.cum[i-1] + w.pts[i].Distance(w.pts[i-1])
	}
	w.total = w.cum[len(w.cum)-1]
	if w.total == 0 {
		return nil, fmt.Errorf("mobility: route has zero length")
	}
	if math.IsInf(w.total, 0) || math.IsNaN(w.total) {
		return nil, fmt.Errorf("mobility: route length is not finite")
	}
	w.still = sim.Infinity
	if !loop {
		w.still = w.arrival()
	}
	return w, nil
}

// arrival returns the least t at which PositionAt parks, speed×t ≥ total,
// by bisection on t: the predicate is monotone in t, and bisection finds
// its exact boundary where dividing total by speed could round either
// way. Infinity when no representable time gets there.
func (w *Waypoints) arrival() sim.Time {
	parked := func(t sim.Time) bool { return w.speed*t.Seconds() >= w.total }
	lo, hi := sim.Time(0), sim.Infinity // !parked(lo), since total > 0
	if !parked(hi) {
		return sim.Infinity
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if parked(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// Speed returns the route speed in m/s.
func (w *Waypoints) Speed() float64 { return w.speed }

// StillFrom returns when the route parks at its final point: the least t
// with speed×t ≥ the route length, or sim.Infinity for a loop.
func (w *Waypoints) StillFrom() sim.Time { return w.still }

// PositionAt returns the position after travelling speed×t along the route.
func (w *Waypoints) PositionAt(t sim.Time) geo.Point {
	d := w.speed * t.Seconds()
	if w.loop {
		laps := int(d / w.total)
		d -= float64(laps) * w.total
	} else if d >= w.total {
		return w.pts[len(w.pts)-1]
	}
	// Find the segment containing distance d.
	lo, hi := 0, len(w.cum)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if w.cum[mid] <= d {
			lo = mid
		} else {
			hi = mid
		}
	}
	segLen := w.cum[hi] - w.cum[lo]
	if segLen == 0 {
		return w.pts[lo]
	}
	frac := (d - w.cum[lo]) / segLen
	return geo.Lerp(w.pts[lo], w.pts[hi], frac)
}

// APSite describes one deployed access point.
type APSite struct {
	Pos         geo.Point
	Channel     dot11.Channel
	SSID        string
	Open        bool    // closed (encrypted) APs beacon but reject joins
	BackhaulBps float64 // offered end-to-end bandwidth through this AP
	// DHCPDead marks an open AP whose DHCP server never answers within a
	// usable time — a common failure among the open APs the paper's
	// utility mechanism learns to avoid.
	DHCPDead bool
	// Captive marks an AP that associates and leases addresses but blocks
	// WAN traffic (captive portal); only an end-to-end connectivity test
	// catches it.
	Captive bool
	// Segment names the wired backhaul segment this AP hangs off. Sites
	// sharing a segment share an IPAM pool group when the scenario declares
	// an explicit address plan (core.WorldConfig.IPAM); empty means the
	// plan's default group.
	Segment string
}

// DeployConfig controls roadside AP placement.
type DeployConfig struct {
	// APsPerKm is the mean linear AP density along the route.
	APsPerKm float64
	// MaxOffset is the maximum perpendicular distance from the road in
	// metres. With a 100 m radio range, larger offsets shorten encounters.
	MaxOffset float64
	// ChannelWeights gives the relative frequency of each channel.
	// Defaults to the paper's measured town mix.
	ChannelWeights map[dot11.Channel]float64
	// OpenFraction is the fraction of APs that are open (joinable).
	OpenFraction float64
	// DHCPDeadFraction is the fraction of open APs whose DHCP never
	// completes.
	DHCPDeadFraction float64
	// CaptiveFraction is the fraction of open APs behind captive portals.
	CaptiveFraction float64
	// BackhaulMinBps and BackhaulMaxBps bound the uniform offered
	// bandwidth per AP.
	BackhaulMinBps float64
	BackhaulMaxBps float64
}

// DefaultDeployConfig matches the paper's town measurements.
func DefaultDeployConfig() DeployConfig {
	return DeployConfig{
		APsPerKm:  25,
		MaxOffset: 70,
		ChannelWeights: map[dot11.Channel]float64{
			dot11.Channel1:   0.28,
			dot11.Channel6:   0.33,
			dot11.Channel11:  0.34,
			dot11.Channel(3): 0.05,
		},
		OpenFraction:     0.45,
		DHCPDeadFraction: 0.10,
		CaptiveFraction:  0.10,
		BackhaulMinBps:   2e6,
		BackhaulMaxBps:   10e6,
	}
}

// DeployAlongRoute places APs with Poisson spacing along the open route
// described by pts, at uniform perpendicular offsets up to MaxOffset on
// either side.
func DeployAlongRoute(rng *sim.RNG, pts []geo.Point, cfg DeployConfig) []APSite {
	if cfg.APsPerKm <= 0 {
		panic("mobility: DeployAlongRoute needs positive density")
	}
	if len(pts) < 2 {
		panic("mobility: DeployAlongRoute needs a route")
	}
	weights, channels := normalizeWeights(cfg.ChannelWeights)
	meanGap := 1000 / cfg.APsPerKm
	var sites []APSite
	// d is the distance from the start of the current segment to the next
	// AP; Poisson spacing means exponential gaps.
	d := rng.ExpFloat64() * meanGap
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		segLen := a.Distance(b)
		dir := b.Sub(a).Unit()
		perp := geo.Vector{X: -dir.Y, Y: dir.X}
		for d <= segLen {
			offset := rng.Uniform(-cfg.MaxOffset, cfg.MaxOffset)
			base := a.Add(dir.Scale(d))
			site := APSite{
				Pos:         base.Add(perp.Scale(offset)),
				Channel:     pickChannel(rng, weights, channels),
				SSID:        fmt.Sprintf("ap-%03d", len(sites)),
				Open:        rng.Bool(cfg.OpenFraction),
				BackhaulBps: rng.Uniform(cfg.BackhaulMinBps, cfg.BackhaulMaxBps),
			}
			if site.Open {
				site.DHCPDead = rng.Bool(cfg.DHCPDeadFraction)
				if !site.DHCPDead {
					site.Captive = rng.Bool(cfg.CaptiveFraction)
				}
			}
			sites = append(sites, site)
			d += rng.ExpFloat64() * meanGap
		}
		d -= segLen
	}
	return sites
}

func normalizeWeights(w map[dot11.Channel]float64) ([]float64, []dot11.Channel) {
	if len(w) == 0 {
		w = DefaultDeployConfig().ChannelWeights
	}
	var channels []dot11.Channel
	for ch := dot11.Channel(1); ch <= 14; ch++ {
		if w[ch] > 0 {
			channels = append(channels, ch)
		}
	}
	total := 0.0
	for _, ch := range channels {
		total += w[ch]
	}
	weights := make([]float64, len(channels))
	for i, ch := range channels {
		weights[i] = w[ch] / total
	}
	return weights, channels
}

func pickChannel(rng *sim.RNG, weights []float64, channels []dot11.Channel) dot11.Channel {
	x := rng.Float64()
	for i, w := range weights {
		if x < w {
			return channels[i]
		}
		x -= w
	}
	return channels[len(channels)-1]
}
