package alloc

import (
	"spider/internal/dot11"
	"spider/internal/phy"
	"spider/internal/sim"
)

// numChannels mirrors the phy layer's flat per-channel arrays (802.11
// channels 1..14).
const numChannels = 15

// Policy is one client's decentralized allocator state: the contention it
// has inferred per channel from carrier-sense signals, and the scoring
// rules its LMM ranks candidate APs by. One Policy per client; it never
// reads another client's state — everything it knows comes through the
// signals a real station's firmware reports.
type Policy struct {
	clientID int

	// Per-channel occupancy inference: the last cumulative airtime sample
	// and its timestamp, folded into EWMAs of the busy fraction and the
	// instantaneous contender count.
	lastAt      sim.Time
	lastAirtime [numChannels]sim.Time
	busy        [numChannels]float64 // EWMA busy fraction (can exceed 1 transiently)
	cont        [numChannels]float64 // EWMA contender count
	sampled     bool
}

// NewPolicy creates one client's decentralized policy.
func NewPolicy(clientID int) *Policy {
	return &Policy{clientID: clientID}
}

// MaxLinks returns the concurrent-link cap the policy imposes.
func (p *Policy) MaxLinks() int { return maxLinks }

// Observe folds fresh carrier-sense readings into the per-channel load
// estimate. airtime returns the cumulative occupancy on a channel and
// contenders its instantaneous transmitter count (the driver exposes
// both); chans lists the channels the client's schedule visits. Called
// from the LMM's reselect pass, so estimates refresh at the reselect
// cadence with no extra timers.
func (p *Policy) Observe(now sim.Time, airtime func(dot11.Channel) sim.Time, contenders func(dot11.Channel) int, chans []dot11.Channel) {
	dt := now - p.lastAt
	if p.sampled && dt <= 0 {
		return
	}
	for _, ch := range chans {
		if ch <= 0 || int(ch) >= numChannels {
			continue
		}
		cum := airtime(ch)
		if p.sampled && dt > 0 {
			frac := float64(cum-p.lastAirtime[ch]) / float64(dt)
			p.busy[ch] = (1-ewmaAlpha)*p.busy[ch] + ewmaAlpha*frac
			p.cont[ch] = (1-ewmaAlpha)*p.cont[ch] + ewmaAlpha*float64(contenders(ch))
		}
		p.lastAirtime[ch] = cum
	}
	p.lastAt = now
	p.sampled = true
}

// Load returns the inferred rival count on a channel: the smoothed
// instantaneous transmitter count plus the busy fraction weighted into
// equivalent contenders. Zero on a channel the client has never sensed.
func (p *Policy) Load(ch dot11.Channel) float64 {
	if ch <= 0 || int(ch) >= numChannels {
		return 0
	}
	return p.cont[ch] + busyWeight*p.busy[ch]
}

// EstRateBps models the PHY goodput toward an AP heard at the given RSSI,
// by inverting the log-distance model and applying the shared
// rate-vs-distance curve.
func (p *Policy) EstRateBps(rssi float64) float64 {
	return phy.ExpectedThroughput(phy.DistanceForRSSI(rssi))
}

// Score ranks a candidate AP for association: estimated rate over inferred
// channel load, scaled by the deterministic per-(client, AP) preference
// spread. Higher is better. Load is per channel, so a client whose
// schedule spans several channels backs off the busy ones; within one
// channel the spread factor fans equal-rate clients across equal APs
// instead of herding them onto the lexicographically first.
func (p *Policy) Score(bssid dot11.MACAddr, ch dot11.Channel, rssi float64) float64 {
	rate := p.EstRateBps(rssi)
	if rate <= 0 {
		return 0
	}
	return rate / (1 + p.Load(ch)) * prefSpread(p.clientID, bssid)
}

// PaceBps returns the client's self-inferred fair-share pacing target on
// the channel it is associated on: its estimated PHY rate divided by the
// inferred rival count (plus itself), scaled by Headroom.
// Zero means unpaced.
//
// The raw contender count includes the client's own radio and its AP —
// the two transmitters its own traffic keeps busy — so those are
// discounted first: a station knows its own traffic and must not infer
// contention from it. With no rival left after the discount the client
// runs unpaced; self-throttling an uncontended link buys no fairness.
// The busy fraction is only charged when rivals remain, because an
// active lone client's own flow saturates the occupancy signal too.
func (p *Policy) PaceBps(ch dot11.Channel, rssi float64) float64 {
	rate := p.EstRateBps(rssi)
	if rate <= 0 {
		return 0
	}
	if ch <= 0 || int(ch) >= numChannels {
		return 0
	}
	rivals := p.cont[ch] - 2
	if rivals <= 0 {
		return 0
	}
	return Headroom * rate / (1 + rivals + busyWeight*p.busy[ch])
}
