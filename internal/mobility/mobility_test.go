package mobility

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/sim"
)

func TestStatic(t *testing.T) {
	m := Static(geo.Point{X: 3, Y: 4})
	if m.PositionAt(0) != m.PositionAt(time.Hour) {
		t.Fatal("static model moved")
	}
	if m.Speed() != 0 {
		t.Fatal("static model has nonzero speed")
	}
}

func TestWaypointsStraightLine(t *testing.T) {
	w := NewWaypoints([]geo.Point{{X: 0, Y: 0}, {X: 1000, Y: 0}}, 10, false)
	if w.Speed() != 10 || w.total != 1000 {
		t.Fatalf("speed=%v length=%v", w.Speed(), w.total)
	}
	p := w.PositionAt(50 * time.Second)
	if math.Abs(p.X-500) > 1e-9 || p.Y != 0 {
		t.Fatalf("position at 50s = %v, want (500,0)", p)
	}
	// Parks at the end.
	end := w.PositionAt(time.Hour)
	if end != (geo.Point{X: 1000, Y: 0}) {
		t.Fatalf("end position = %v", end)
	}
}

func TestWaypointsMultiSegment(t *testing.T) {
	w := NewWaypoints([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 100, Y: 100}}, 10, false)
	p := w.PositionAt(15 * time.Second) // 150 m: 50 m into second segment
	if math.Abs(p.X-100) > 1e-9 || math.Abs(p.Y-50) > 1e-9 {
		t.Fatalf("position = %v, want (100,50)", p)
	}
}

func TestWaypointsLoop(t *testing.T) {
	// 400 m square loop at 10 m/s: one lap every 40 s.
	w := NewWaypoints([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 100, Y: 100}, {X: 0, Y: 100}}, 10, true)
	if w.total != 400 {
		t.Fatalf("loop length = %v, want 400 (closed)", w.total)
	}
	p0 := w.PositionAt(5 * time.Second)
	p1 := w.PositionAt(45 * time.Second) // one lap later
	if p0.Distance(p1) > 1e-6 {
		t.Fatalf("loop positions differ: %v vs %v", p0, p1)
	}
}

func TestWaypointsValidation(t *testing.T) {
	for _, tc := range []func(){
		func() { NewWaypoints([]geo.Point{{X: 0, Y: 0}}, 10, false) },
		func() { NewWaypoints([]geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}, 0, false) },
		func() { NewWaypoints([]geo.Point{{X: 0, Y: 0}, {X: 0, Y: 0}}, 5, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid waypoints did not panic")
				}
			}()
			tc()
		}()
	}
}

// Property: motion is continuous — over small dt, displacement ≈ speed·dt.
func TestPropertyWaypointsContinuity(t *testing.T) {
	w := NewWaypoints([]geo.Point{{X: 0, Y: 0}, {X: 500, Y: 0}, {X: 500, Y: 500}, {X: 0, Y: 500}}, 15, true)
	f := func(ms uint16) bool {
		t0 := sim.Time(ms) * time.Millisecond * 10
		dt := 20 * time.Millisecond
		d := w.PositionAt(t0).Distance(w.PositionAt(t0 + dt))
		// Displacement can be shorter at corners but never longer than
		// speed*dt (plus epsilon).
		return d <= 15*dt.Seconds()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDeployAlongRouteDensity(t *testing.T) {
	rng := sim.NewRNG(42)
	route := []geo.Point{{X: 0, Y: 0}, {X: 10000, Y: 0}} // 10 km
	cfg := DefaultDeployConfig()
	cfg.APsPerKm = 10
	sites := DeployAlongRoute(rng, route, cfg)
	// Expect ≈100 APs; Poisson sd is 10, allow ±40%.
	if len(sites) < 60 || len(sites) > 140 {
		t.Fatalf("deployed %d APs on 10 km at 10/km", len(sites))
	}
	for _, s := range sites {
		if s.Pos.X < 0 || s.Pos.X > 10000 {
			t.Fatalf("AP beyond route: %v", s.Pos)
		}
		if math.Abs(s.Pos.Y) > cfg.MaxOffset {
			t.Fatalf("AP offset %v beyond max %v", s.Pos.Y, cfg.MaxOffset)
		}
		if !s.Channel.Valid() {
			t.Fatalf("invalid channel %v", s.Channel)
		}
		if s.BackhaulBps < cfg.BackhaulMinBps || s.BackhaulBps > cfg.BackhaulMaxBps {
			t.Fatalf("backhaul %v out of range", s.BackhaulBps)
		}
	}
}

func TestDeployChannelMix(t *testing.T) {
	rng := sim.NewRNG(7)
	route := []geo.Point{{X: 0, Y: 0}, {X: 200000, Y: 0}} // long route for statistics
	cfg := DefaultDeployConfig()
	cfg.APsPerKm = 10
	sites := DeployAlongRoute(rng, route, cfg)
	counts := map[dot11.Channel]int{}
	for _, s := range sites {
		counts[s.Channel]++
	}
	n := float64(len(sites))
	for ch, want := range map[dot11.Channel]float64{dot11.Channel1: 0.28, dot11.Channel6: 0.33, dot11.Channel11: 0.34} {
		got := float64(counts[ch]) / n
		if math.Abs(got-want) > 0.04 {
			t.Fatalf("channel %v fraction = %.3f, want ≈%.2f", ch, got, want)
		}
	}
}

func TestDeployOpenFraction(t *testing.T) {
	rng := sim.NewRNG(3)
	cfg := DefaultDeployConfig()
	cfg.OpenFraction = 0.4
	sites := DeployAlongRoute(rng, []geo.Point{{X: 0, Y: 0}, {X: 100000, Y: 0}}, cfg)
	open := 0
	for _, s := range sites {
		if s.Open {
			open++
		}
	}
	frac := float64(open) / float64(len(sites))
	if math.Abs(frac-0.4) > 0.05 {
		t.Fatalf("open fraction = %.3f, want ≈0.40", frac)
	}
}

func TestDeploySSIDsUnique(t *testing.T) {
	rng := sim.NewRNG(5)
	sites := DeployAlongRoute(rng, []geo.Point{{X: 0, Y: 0}, {X: 5000, Y: 0}}, DefaultDeployConfig())
	seen := map[string]bool{}
	for _, s := range sites {
		if seen[s.SSID] {
			t.Fatalf("duplicate SSID %q", s.SSID)
		}
		seen[s.SSID] = true
	}
}

func TestDeployValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero density did not panic")
		}
	}()
	DeployAlongRoute(sim.NewRNG(1), []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}, DeployConfig{})
}

// Property: encounter duration at a given offset matches the chord length
// divided by speed: sampling the route every 10 ms, the fraction of
// samples within 100 m of a site at perpendicular offset o is the chord
// 2·√(100²−o²) over the 2 km route.
func TestPropertyEncounterDuration(t *testing.T) {
	const radius, step = 100.0, 10 * time.Millisecond
	f := func(off uint8, spd uint8) bool {
		offset := float64(off % 99)
		speed := float64(spd%20) + 1
		m := NewWaypoints([]geo.Point{{X: -1000, Y: 0}, {X: 1000, Y: 0}}, speed, false)
		site := geo.Point{X: 0, Y: offset}
		total := sim.Time(float64(2000/speed) * float64(time.Second))
		covered, samples := 0, 0
		for at := sim.Time(0); at < total; at += step {
			samples++
			if m.PositionAt(at).Distance(site) <= radius {
				covered++
			}
		}
		frac := float64(covered) / float64(samples)
		wantFrac := 2 * math.Sqrt(radius*radius-offset*offset) / 2000
		return math.Abs(frac-wantFrac) < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: StillFrom is exactly when a route parks. Over random routes and
// speeds, a parking route's StillFrom is the least t with speed×t ≥ Length,
// PositionAt returns the final point at every sampled t from then on, and
// a loop never parks.
func TestPropertyStillFrom(t *testing.T) {
	if got := Static(geo.Point{X: 3, Y: 4}).StillFrom(); got != 0 {
		t.Fatalf("static StillFrom = %v, want 0", got)
	}
	rng := sim.NewRNG(5)
	for i := 0; i < 2000; i++ {
		scale := math.Pow(10, rng.Uniform(-2, 5)) // centimetres to 100 km
		pts := make([]geo.Point, 2+rng.Intn(5))
		for j := range pts {
			pts[j] = geo.Point{X: rng.Uniform(-scale, scale), Y: rng.Uniform(-scale, scale)}
		}
		speed := math.Pow(10, rng.Uniform(-2, 3))
		loop := rng.Bool(0.2)
		w := NewWaypoints(pts, speed, loop)
		still := w.StillFrom()
		if loop {
			if still != sim.Infinity {
				t.Fatalf("route %d: loop StillFrom = %v, want sim.Infinity", i, still)
			}
			continue
		}
		if still <= 0 || still == sim.Infinity {
			t.Fatalf("route %d: StillFrom = %v for a %.3g m route at %.3g m/s", i, still, w.total, speed)
		}
		if speed*still.Seconds() < w.total {
			t.Fatalf("route %d: speed×StillFrom = %v short of length %v", i, speed*still.Seconds(), w.total)
		}
		if speed*(still-1).Seconds() >= w.total {
			t.Fatalf("route %d: already parked at StillFrom-1 = %v", i, still-1)
		}
		last := w.pts[len(w.pts)-1]
		for _, at := range []sim.Time{still, still + 1, still + rng.ExpDuration(time.Minute), sim.Infinity} {
			if at < still { // the exponential sample overflowed
				continue
			}
			if p := w.PositionAt(at); p != last {
				t.Fatalf("route %d: PositionAt(%v) = %v after StillFrom %v, want %v", i, at, p, still, last)
			}
		}
	}
	// A route no representable time finishes never parks either.
	far := NewWaypoints([]geo.Point{{X: 0, Y: 0}, {X: 1e12, Y: 0}}, 1e-3, false)
	if got := far.StillFrom(); got != sim.Infinity {
		t.Fatalf("unfinishable route StillFrom = %v, want sim.Infinity", got)
	}
}
