// Package predict implements encounter-history prediction, the
// related-work thread (BreadCrumbs, Deshpande et al.) the paper points at
// for improving AP selection: a position-indexed database of past join
// outcomes that lets a commuting client choose, for each stretch of road,
// the channel that historically carried its best APs — before it even
// hears their beacons.
//
// The history is a sparse grid of square cells. Each observation deposits
// a score (the LMM's join-outcome value) for the AP's channel into the
// client's current cell; queries aggregate a cell and its neighbours with
// exponential decay, so stale knowledge fades as the radio environment
// changes.
package predict

import (
	"math"
	"sort"

	"spider/internal/dot11"
	"spider/internal/geo"
)

const (
	// cellSize is the grid granularity in metres, matching the radio range.
	cellSize = 100
	// decay is the multiplicative factor applied to a cell-channel score
	// when a new observation for the same pair arrives (recency bias).
	decay = 0.7
	// minScore is the aggregate score a channel needs before BestChannel
	// will recommend it.
	minScore = 0.5
)

// Observation is one join outcome at a position.
type Observation struct {
	Pos     geo.Point
	Channel dot11.Channel
	BSSID   dot11.MACAddr
	// Score is the join outcome value (0 for failed association up to 1
	// for full end-to-end connectivity), negative to penalize.
	Score float64
}

type cellKey struct{ x, y int32 }

// History is the position-indexed join-outcome database.
type History struct {
	// cells holds each populated cell's decayed score per channel.
	cells map[cellKey]map[dot11.Channel]float64

	// Observations counts records ever made.
	Observations int
}

// New creates an empty history.
func New() *History {
	return &History{cells: make(map[cellKey]map[dot11.Channel]float64)}
}

func (h *History) key(p geo.Point) cellKey {
	return cellKey{
		x: int32(math.Floor(p.X / cellSize)),
		y: int32(math.Floor(p.Y / cellSize)),
	}
}

// Record deposits an observation into the cell containing its position.
func (h *History) Record(obs Observation) {
	if !obs.Channel.Valid() {
		return
	}
	h.Observations++
	k := h.key(obs.Pos)
	c := h.cells[k]
	if c == nil {
		c = make(map[dot11.Channel]float64)
		h.cells[k] = c
	}
	c[obs.Channel] = c[obs.Channel]*decay + obs.Score
}

// BestChannel recommends the historically best channel near p, or false if
// no channel clears minScore (unexplored territory).
func (h *History) BestChannel(p geo.Point) (dot11.Channel, bool) {
	scores := make(map[dot11.Channel]float64)
	k := h.key(p)
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			if c := h.cells[cellKey{k.x + dx, k.y + dy}]; c != nil {
				for ch, s := range c {
					scores[ch] += s
				}
			}
		}
	}
	var channels []dot11.Channel
	for ch := range scores {
		channels = append(channels, ch)
	}
	sort.Slice(channels, func(i, j int) bool {
		if scores[channels[i]] != scores[channels[j]] {
			return scores[channels[i]] > scores[channels[j]]
		}
		return channels[i] < channels[j]
	})
	if len(channels) == 0 || scores[channels[0]] < minScore {
		return 0, false
	}
	return channels[0], true
}
