package energy

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"spider/internal/sim"
)

func TestComputeBasic(t *testing.T) {
	b := Compute(10*time.Second, 5*time.Second, 100*time.Second)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"TxJ", b.TxJ, 14},           // 1.4 W × 10 s
		{"SwitchJ", b.SwitchJ, 5},    // 1.0 W × 5 s
		{"ListenJ", b.ListenJ, 76.5}, // 0.9 W × 85 s
		{"TotalJ", b.TotalJ(), 95.5},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Fatalf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestComputeClamps(t *testing.T) {
	// tx+switch exceeding total must clamp without negative listen time.
	b := Compute(90*time.Second, 30*time.Second, 100*time.Second)
	if b.ListenJ < 0 {
		t.Fatalf("negative listen energy: %v", b.ListenJ)
	}
	if b.TotalJ() <= 0 {
		t.Fatal("no energy accounted")
	}
	if z := Compute(time.Second, time.Second, 0); z.TotalJ() != 0 {
		t.Fatalf("zero-duration energy = %v", z.TotalJ())
	}
	neg := Compute(-time.Second, -time.Second, 10*time.Second)
	if neg.TxJ != 0 || neg.SwitchJ != 0 {
		t.Fatal("negative inputs not clamped")
	}
}

func TestPerBit(t *testing.T) {
	b := Breakdown{TxJ: 1, ListenJ: 1}
	// 2 J over 1 Mbit = 2 µJ/bit.
	if got := b.PerBitMicroJ(125_000); math.Abs(got-2) > 1e-9 {
		t.Fatalf("per-bit = %v, want 2", got)
	}
	if !math.IsInf(b.PerBitMicroJ(0), 1) {
		t.Fatal("zero bytes should be +Inf")
	}
}

func TestDefaultProfileSane(t *testing.T) {
	if txW <= listenW {
		t.Fatal("transmit should cost more than listening")
	}
	if listenW <= 0 || switchW <= 0 {
		t.Fatal("non-positive draws")
	}
}

// Property: total energy is bounded by max-power × duration and never
// negative.
func TestPropertyEnergyBounds(t *testing.T) {
	f := func(txMs, swMs, totMs uint16) bool {
		total := sim.Time(totMs) * time.Millisecond
		b := Compute(sim.Time(txMs)*time.Millisecond, sim.Time(swMs)*time.Millisecond, total)
		maxW := math.Max(txW, math.Max(listenW, switchW))
		if b.TxJ < 0 || b.SwitchJ < 0 || b.ListenJ < -1e-9 {
			return false
		}
		return b.TotalJ() <= maxW*total.Seconds()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
