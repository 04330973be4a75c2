// Package energy models the client radio's power draw. The paper motivates
// Wi-Fi offload partly by its "higher per-bit energy efficiency"; this
// model attributes a run's wall time to transmit, channel-switch, and
// listen states and prices them with a typical 802.11b card's power
// profile, so configurations can be compared by joules per delivered bit.
package energy

import (
	"fmt"
	"math"

	"spider/internal/sim"
)

// The radio's power draw in watts, from a typical 200x-era Atheros 802.11b
// card.
const (
	// txW is the draw while transmitting.
	txW = 1.4
	// listenW is the draw while awake on a channel (receive/overhear).
	listenW = 0.9
	// switchW is the draw during a hardware reset.
	switchW = 1.0
)

// Breakdown is a run's energy attribution in joules.
type Breakdown struct {
	TxJ     float64
	SwitchJ float64
	ListenJ float64
}

// TotalJ returns the summed energy.
func (b Breakdown) TotalJ() float64 { return b.TxJ + b.SwitchJ + b.ListenJ }

// PerBitMicroJ returns the efficiency metric µJ/bit for a given payload; it
// is +Inf when no bits were delivered.
func (b Breakdown) PerBitMicroJ(bytes int64) float64 {
	bits := float64(bytes * 8)
	if bits <= 0 {
		return inf()
	}
	return b.TotalJ() / bits * 1e6
}

func inf() float64 { return math.Inf(1) }

func (b Breakdown) String() string {
	return fmt.Sprintf("energy{tx=%.1fJ switch=%.1fJ listen=%.1fJ total=%.1fJ}",
		b.TxJ, b.SwitchJ, b.ListenJ, b.TotalJ())
}

// Compute attributes a run's duration: txTime on air transmitting,
// switchTime in hardware resets, and the remainder listening. Times beyond
// the total are clamped.
func Compute(txTime, switchTime, total sim.Time) Breakdown {
	if total <= 0 {
		return Breakdown{}
	}
	if txTime < 0 {
		txTime = 0
	}
	if switchTime < 0 {
		switchTime = 0
	}
	if txTime+switchTime > total {
		// Clamp proportionally: accounting slack should never create
		// negative listen time.
		scale := float64(total) / float64(txTime+switchTime)
		txTime = sim.Time(float64(txTime) * scale)
		switchTime = total - txTime
	}
	listen := total - txTime - switchTime
	return Breakdown{
		TxJ:     txW * txTime.Seconds(),
		SwitchJ: switchW * switchTime.Seconds(),
		ListenJ: listenW * listen.Seconds(),
	}
}
