package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"spider/internal/obs"
	"spider/internal/sim"
)

const W = sim.Time(1e9)

func newBound(t *testing.T, cfg Config) (*Aggregator, *obs.Recorder) {
	t.Helper()
	a := New(cfg)
	rec := obs.NewStreamingRecorder()
	a.Bind(rec)
	return a, rec
}

// TestSketchAccuracy: quantiles land within one log-linear bucket
// (≤12.5% relative error) and are insensitive to observation order.
func TestSketchAccuracy(t *testing.T) {
	var s, rev Sketch
	n := 10000
	for i := 1; i <= n; i++ {
		s.Observe(int64(i) * 1000)
	}
	for i := n; i >= 1; i-- {
		rev.Observe(int64(i) * 1000)
	}
	if s != rev {
		t.Fatalf("sketch depends on observation order")
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := s.Quantile(q)
		want := q * float64(n) * 1000
		if math.Abs(got-want)/want > 0.13 {
			t.Fatalf("q=%g: got %g want %g (err %.1f%%)", q, got, want, 100*math.Abs(got-want)/want)
		}
	}
	if s.Count() != int64(n) {
		t.Fatalf("count %d", s.Count())
	}
	// Sparse export round-trips through the shared quantile path.
	if got, direct := QuantileFromSparse(s.Sparse(), 0.95), s.Quantile(0.95); got != direct {
		t.Fatalf("sparse quantile %g != live %g", got, direct)
	}
	var empty Sketch
	if empty.Quantile(0.5) != 0 || empty.Sparse() != nil {
		t.Fatalf("empty sketch not zero")
	}
	if QuantileFromSparse(nil, 0.5) != 0 {
		t.Fatalf("empty sparse quantile")
	}
}

// TestSketchSmallValues: values below 8 land in unit-wide buckets, so a
// quantile is within 1 of the truth (sub-nanosecond precision is noise).
func TestSketchSmallValues(t *testing.T) {
	var s Sketch
	for i := 0; i < 10; i++ {
		s.Observe(5)
	}
	if got := s.Quantile(0.5); got < 4 || got > 5 {
		t.Fatalf("q50 of constant 5: %g", got)
	}
}

// TestWindowRollup: events and goodput land in their sim-time windows,
// outages split across boundaries, and Jain reflects the skew.
func TestWindowRollup(t *testing.T) {
	a, rec := newBound(t, Config{Window: W})
	l0, l1 := rec.Client(0), rec.Client(1)

	l0.Emit(obs.Event{At: W / 10, Kind: obs.KindJoinStart})
	l0.Emit(obs.Event{At: W / 2, Kind: obs.KindJoinComplete, BSSID: "ap-0", Value: int64(400 * 1e6)})
	a.AddGoodput(0, W/2, 3000)
	a.AddGoodput(1, W/2, 1000)
	a.AddRTT(0, W/2, sim.Time(20*1e6))

	// Outage spanning windows 0..2: 0.5s in w0, 1s in w1, 0.25s in w2.
	l1.Emit(obs.Event{At: W / 2, Kind: obs.KindOutageBegin})
	a.Tick(W)
	a.Tick(2 * W)
	l1.Emit(obs.Event{At: 2*W + W/4, Kind: obs.KindOutageEnd, Value: int64(W + 3*W/4)})
	a.AddGoodput(0, 2*W+W/2, 500)
	a.Finish(3 * W)

	ws := a.Windows()
	if len(ws) != 3 {
		t.Fatalf("windows: %d", len(ws))
	}
	w0 := ws[0]
	if w0.JoinStarts != 1 || w0.JoinOKs != 1 || w0.GoodputBytes != 4000 {
		t.Fatalf("w0: %+v", w0)
	}
	if w0.JoinP95MS < 350 || w0.JoinP95MS > 450 {
		t.Fatalf("w0 join p95 = %g ms", w0.JoinP95MS)
	}
	if w0.RTTP50MS < 17 || w0.RTTP50MS > 23 {
		t.Fatalf("w0 rtt p50 = %g ms", w0.RTTP50MS)
	}
	if w0.OutageBegins != 1 || w0.OutageNS != int64(W/2) {
		t.Fatalf("w0 outage: begins=%d ns=%d", w0.OutageBegins, w0.OutageNS)
	}
	if len(w0.PerAP) != 1 || w0.PerAP[0].BSSID != "ap-0" || w0.PerAP[0].JoinOKs != 1 {
		t.Fatalf("w0 per-AP: %+v", w0.PerAP)
	}
	// clients={0,1}, goodput {3000,1000}: jain = 16/(2*10) = 0.8
	if math.Abs(w0.Jain-0.8) > 1e-9 {
		t.Fatalf("w0 jain = %g", w0.Jain)
	}
	if len(w0.PerClient) != 2 || w0.PerClient[0].Client != 0 || w0.PerClient[1].OutageNS != int64(W/2) {
		t.Fatalf("w0 per-client: %+v", w0.PerClient)
	}

	if ws[1].OutageNS != int64(W) || ws[1].GoodputBytes != 0 {
		t.Fatalf("w1: outage=%d goodput=%d", ws[1].OutageNS, ws[1].GoodputBytes)
	}
	// w1 saw no goodput at all: all-zero allocation is perfectly fair.
	if ws[1].Jain != 1 {
		t.Fatalf("w1 jain = %g", ws[1].Jain)
	}
	if ws[2].OutageNS != int64(W/4) || ws[2].GoodputBytes != 500 {
		t.Fatalf("w2: outage=%d goodput=%d", ws[2].OutageNS, ws[2].GoodputBytes)
	}

	// Finish is terminal: later inputs are ignored.
	a.AddGoodput(0, 10*W, 99)
	a.Tick(20 * W)
	if len(a.Windows()) != 3 {
		t.Fatalf("post-Finish input changed windows")
	}
}

// TestProbeDeltas: cumulative probe counters become per-window deltas
// and per-channel airtime series.
func TestProbeDeltas(t *testing.T) {
	a, _ := newBound(t, Config{Window: W})
	cum := Probe{Clients: 4, CumCollisions: 10, CumPoolExhausted: 1,
		Channels: []ChannelProbe{{Channel: 1, CumAirtimeNS: 100, Contenders: 2}}}
	a.SetProbe(func() Probe { return cum })
	a.Tick(W)
	cum = Probe{Clients: 4, CumCollisions: 25, CumPoolExhausted: 1,
		Channels: []ChannelProbe{{Channel: 1, CumAirtimeNS: 350, Contenders: 3}, {Channel: 6, CumAirtimeNS: 40, Contenders: 1}}}
	a.Tick(2 * W)
	a.Finish(2 * W)

	ws := a.Windows()
	if len(ws) != 2 {
		t.Fatalf("windows: %d", len(ws))
	}
	if ws[0].Collisions != 10 || ws[0].PoolExhausted != 1 || ws[0].Clients != 4 {
		t.Fatalf("w0 probe: %+v", ws[0])
	}
	if ws[1].Collisions != 15 || ws[1].PoolExhausted != 0 {
		t.Fatalf("w1 probe: %+v", ws[1])
	}
	if len(ws[1].Channels) != 2 || ws[1].Channels[0].AirtimeNS != 250 || ws[1].Channels[1].Channel != 6 || ws[1].Channels[1].AirtimeNS != 40 {
		t.Fatalf("w1 channels: %+v", ws[1].Channels)
	}
}

// TestSLOTransitions: a violating window emits health.violation with the
// window's values, recovery emits health.recovered, and steady states
// emit nothing.
func TestSLOTransitions(t *testing.T) {
	rules := []SLORule{{Name: "outage-rate", Signal: "outage_rate", Op: "max", Limit: 0.25}}
	a, rec := newBound(t, Config{Window: W, SLOs: rules})
	var health []obs.Event
	rec.Subscribe(func(e obs.Event) {
		if e.Kind == obs.KindHealthViolation || e.Kind == obs.KindHealthRecovered {
			health = append(health, e)
		}
	})
	l := rec.Client(0)
	// w0: client 0 out the whole window → rate 1.0 → violate.
	l.Emit(obs.Event{At: 0, Kind: obs.KindOutageBegin})
	a.Tick(W)
	// w1: still out → still violating, no new event.
	a.Tick(2 * W)
	// w2: recovery early in the window → rate 0.1 → recover.
	l.Emit(obs.Event{At: 2*W + W/10, Kind: obs.KindOutageEnd, Value: int64(2*W + W/10)})
	a.Tick(3 * W)
	a.Finish(3 * W)

	if len(health) != 2 {
		t.Fatalf("health events: %+v", health)
	}
	v, r := health[0], health[1]
	if v.Kind != obs.KindHealthViolation || v.At != W || v.Client != obs.WorldClient {
		t.Fatalf("violation: %+v", v)
	}
	if v.Value != 1000 { // rate 1.0 in milli-units
		t.Fatalf("violation value: %d", v.Value)
	}
	if !strings.Contains(v.Note, "outage-rate outage_rate=1.000 max=0.250 w=0") {
		t.Fatalf("violation note: %q", v.Note)
	}
	if r.Kind != obs.KindHealthRecovered || r.At != 3*W {
		t.Fatalf("recovered: %+v", r)
	}
	if !strings.Contains(r.Note, "w=2") {
		t.Fatalf("recovered note: %q", r.Note)
	}
	ws := a.Windows()
	if len(ws[0].Violations) != 1 || ws[0].Violations[0] != "outage-rate" {
		t.Fatalf("w0 violations: %v", ws[0].Violations)
	}
	if len(ws[1].Violations) != 1 || len(ws[2].Violations) != 0 {
		t.Fatalf("violation annotations: %v %v", ws[1].Violations, ws[2].Violations)
	}
}

// TestMaxWindows: the rollup series honors its bound and counts drops.
func TestMaxWindows(t *testing.T) {
	a, _ := newBound(t, Config{Window: W, MaxWindows: 4})
	for i := 1; i <= 10; i++ {
		a.Tick(sim.Time(i) * W)
	}
	a.Finish(10 * W)
	if len(a.Windows()) != 4 {
		t.Fatalf("windows: %d", len(a.Windows()))
	}
	if a.Windows()[0].Index != 6 {
		t.Fatalf("oldest retained: %d", a.Windows()[0].Index)
	}
	if a.DroppedWindows() != 6 {
		t.Fatalf("dropped: %d", a.DroppedWindows())
	}
}

// TestExportDeterminism: two identical runs produce byte-identical JSONL.
func TestExportDeterminism(t *testing.T) {
	runOnce := func() []byte {
		a, rec := newBound(t, Config{Window: W, SLOs: DefaultSLOs()})
		a.SetProbe(func() Probe { return Probe{Clients: 8} })
		for c := 0; c < 8; c++ {
			l := rec.Client(c)
			l.Emit(obs.Event{At: sim.Time(c) * W / 8, Kind: obs.KindJoinStart})
			l.Emit(obs.Event{At: sim.Time(c)*W/8 + W/16, Kind: obs.KindJoinComplete, BSSID: "ap-1", Value: int64(W / 16)})
			a.AddGoodput(c, W/2, 100*(c+1))
			a.AddRTT(c, W/2, sim.Time(1e6*(c+1)))
		}
		a.Tick(W)
		a.Finish(2 * W)
		var j bytes.Buffer
		if err := a.WriteJSONL(&j, "run-a"); err != nil {
			t.Fatal(err)
		}
		return j.Bytes()
	}
	j1, j2 := runOnce(), runOnce()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("JSONL differs:\n%s\nvs\n%s", j1, j2)
	}
	// The JSONL holds one line per window.
	lines := strings.Split(strings.TrimSpace(string(j1)), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines: %d", len(lines))
	}
	for _, l := range lines {
		if !strings.Contains(l, `"window"`) {
			t.Fatalf("line is not a window: %s", l)
		}
	}
}

// TestNilAggregator: the disabled plane is safe everywhere.
func TestNilAggregator(t *testing.T) {
	var a *Aggregator
	a.Bind(obs.NewRecorder())
	a.SetProbe(func() Probe { return Probe{} })
	a.AddGoodput(0, 0, 1)
	a.AddRTT(0, 0, 1)
	a.Tick(W)
	a.Finish(W)
	if a.Windows() != nil || a.Window() != 0 {
		t.Fatalf("nil aggregator returned data")
	}
	if err := a.WriteJSONL(&bytes.Buffer{}, "x"); err != nil {
		t.Fatal(err)
	}
}
