// Package telemetry is the streaming aggregation plane: bounded-memory
// rollups and declarative SLO health evaluated online, beside (not
// instead of) the raw obs recorder.
//
// The raw recorder keeps every event and span, which is exactly right up
// to a few hundred clients and unaffordable at the 1024/4096-client
// dense rungs. The telemetry plane subscribes to the same deterministic
// event stream and keeps only:
//
//   - fixed sim-time windows of per-client / per-AP / per-channel
//     aggregates (goodput, airtime, collisions, join outcomes, outage
//     time, Jain across clients) plus log-linear quantile sketches for
//     join latency and RTT — O(windows) memory however many clients;
//   - per-rule SLO state emitting health.violation / health.recovered
//     events on the world timeline — O(rules).
//
// Raw events and spans are the recorder's to keep: a run that wants them
// records with a retaining obs recorder, and the plane holds none.
//
// Determinism contract: every input is already deterministic (obs events
// in engine order, sim-time-driven ticks), the aggregator adds no
// randomness and no wall-clock reads, and every export sorts map-shaped
// state before rendering. A rollup export is therefore byte-identical at
// any fleet worker count and across a serve crash/restore replay.
package telemetry

import (
	"encoding/json"
	"io"
	"sort"

	"spider/internal/obs"
	"spider/internal/sim"
)

// Config sizes the aggregation plane.
type Config struct {
	// Window is the rollup window width in sim time (default 1s).
	Window sim.Time
	// MaxWindows bounds retained closed windows; 0 keeps all (the
	// rollup series is O(run length / Window), which is the plane's
	// stated budget). When bounded, oldest windows drop and
	// DroppedWindows counts them.
	MaxWindows int
	// SLOs are the health rules evaluated at every window close; nil
	// means no health evaluation (use DefaultSLOs() for the stock set).
	SLOs []SLORule
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = sim.Time(1e9)
	}
	return c
}

// ChannelProbe is one channel's cumulative medium counters at probe time.
type ChannelProbe struct {
	Channel      int
	CumAirtimeNS int64
	Contenders   int
}

// Probe is a snapshot of cumulative world counters, sampled by the
// aggregator once per window close; window values are deltas between
// consecutive probes. The probe callback reads live simulation state, so
// it runs on the sim goroutine at a deterministic sim time.
type Probe struct {
	Clients          int
	Channels         []ChannelProbe
	CumCollisions    int64
	CumPoolExhausted int64
}

// ClientRoll is one client's share of a window.
type ClientRoll struct {
	Client       int   `json:"client"`
	GoodputBytes int64 `json:"goodput_bytes,omitempty"`
	OutageNS     int64 `json:"outage_ns,omitempty"`
}

// APRoll is one AP's share of a window.
type APRoll struct {
	BSSID      string `json:"bssid"`
	JoinOKs    int64  `json:"join_oks,omitempty"`
	JoinFails  int64  `json:"join_fails,omitempty"`
	IPAMAllocs int64  `json:"ipam_allocs,omitempty"`
}

// ChannelRoll is one channel's share of a window (airtime is the delta
// of cumulative busy time across the window; contenders is the
// population at window close).
type ChannelRoll struct {
	Channel    int   `json:"channel"`
	AirtimeNS  int64 `json:"airtime_ns,omitempty"`
	Contenders int   `json:"contenders,omitempty"`
}

// Window is one closed rollup window — the export unit of the plane.
type Window struct {
	Index   int64 `json:"w"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Clients is the population at close (from the probe; falls back to
	// the number of clients seen on the stream).
	Clients       int   `json:"clients,omitempty"`
	ActiveClients int   `json:"active_clients,omitempty"`
	GoodputBytes  int64 `json:"goodput_bytes,omitempty"`
	// Jain is Jain's fairness index of per-client goodput within the
	// window over the full population (idle clients count as zero).
	Jain       float64 `json:"jain"`
	JoinStarts int64   `json:"join_starts,omitempty"`
	JoinOKs    int64   `json:"join_oks,omitempty"`
	JoinFails  int64   `json:"join_fails,omitempty"`
	JoinP50MS  float64 `json:"join_p50_ms,omitempty"`
	JoinP95MS  float64 `json:"join_p95_ms,omitempty"`
	JoinP99MS  float64 `json:"join_p99_ms,omitempty"`
	RTTP50MS   float64 `json:"rtt_p50_ms,omitempty"`
	RTTP95MS   float64 `json:"rtt_p95_ms,omitempty"`
	// OutageNS is client-seconds of outage overlapping this window (an
	// outage spanning windows is split across them).
	OutageBegins  int64 `json:"outage_begins,omitempty"`
	OutageNS      int64 `json:"outage_ns,omitempty"`
	LinkUps       int64 `json:"link_ups,omitempty"`
	LinkDowns     int64 `json:"link_downs,omitempty"`
	Handoffs      int64 `json:"handoffs,omitempty"`
	FaultBegins   int64 `json:"fault_begins,omitempty"`
	IPAMAllocs    int64 `json:"ipam_allocs,omitempty"`
	IPAMFailovers int64 `json:"ipam_failovers,omitempty"`
	// Collisions / PoolExhausted are probe deltas across the window.
	Collisions    int64 `json:"collisions,omitempty"`
	PoolExhausted int64 `json:"pool_exhausted,omitempty"`
	// JoinHist / RTTHist are the window's quantile sketches in sparse
	// (bucket, count) form; QuantileFromSparse reads quantiles back.
	JoinHist [][2]int64 `json:"join_hist,omitempty"`
	RTTHist  [][2]int64 `json:"rtt_hist,omitempty"`

	Channels  []ChannelRoll `json:"channels,omitempty"`
	PerClient []ClientRoll  `json:"per_client,omitempty"`
	PerAP     []APRoll      `json:"per_ap,omitempty"`
	// Violations names the SLO rules in violation after this window's
	// evaluation, in rule order.
	Violations []string `json:"violations,omitempty"`
}

// winAcc is the open accumulator behind one not-yet-closed window.
type winAcc struct {
	goodput map[int]int64
	outage  map[int]int64
	perAP   map[string]*apAcc
	join    Sketch
	rtt     Sketch

	joinStarts, joinOKs, joinFails         int64
	outageBegins                           int64
	linkUps, linkDowns, handoffs           int64
	faultBegins, ipamAllocs, ipamFailovers int64
}

type apAcc struct {
	joinOKs, joinFails, ipamAllocs int64
}

func newWinAcc() *winAcc {
	return &winAcc{
		goodput: make(map[int]int64),
		outage:  make(map[int]int64),
		perAP:   make(map[string]*apAcc),
	}
}

// reset empties the accumulator for another window, keeping its maps'
// storage.
func (w *winAcc) reset() {
	clear(w.goodput)
	clear(w.outage)
	clear(w.perAP)
	*w = winAcc{goodput: w.goodput, outage: w.outage, perAP: w.perAP}
}

func (w *winAcc) ap(bssid string) *apAcc {
	a, ok := w.perAP[bssid]
	if !ok {
		a = &apAcc{}
		w.perAP[bssid] = a
	}
	return a
}

// Aggregator is the streaming plane for one run. It is driven entirely
// from the simulation goroutine (event subscriptions, window ticks), so
// it needs no locking; reads of closed windows are safe once the run is
// quiescent, matching the obs.Recorder access contract. The nil
// aggregator is fully disabled: every method is a branch and no work.
type Aggregator struct {
	cfg   Config
	rec   *obs.Recorder
	probe func() Probe

	accs   map[int64]*winAcc
	curIdx int64
	cur    *winAcc
	// known tracks which client IDs have appeared on the stream, indexed
	// by ID (IDs are dense small ints); knownCount is its population. A
	// map here would pay a hashed assign on every event and every goodput
	// delivery — the two hottest paths in the plane.
	known      []bool
	knownCount int
	outOpen    map[int]sim.Time

	lastClosed     int64
	windows        []Window
	droppedWindows int64
	// spare holds closed windows' accumulators, reset for reuse, and ids
	// and bssids are closeWindow's sort scratch, so a run builds them
	// once rather than once per window.
	spare  []*winAcc
	ids    []int
	bssids []string

	lastProbe Probe
	haveProbe bool

	sloBad   map[string]bool
	finished bool
	// violations counts SLO rules entering violation, over the run.
	violations int64
}

// New builds an aggregator; zero-value fields of cfg take the package
// defaults.
func New(cfg Config) *Aggregator {
	cfg = cfg.withDefaults()
	return &Aggregator{
		cfg:        cfg,
		accs:       make(map[int64]*winAcc),
		curIdx:     -1,
		outOpen:    make(map[int]sim.Time),
		lastClosed: -1,
		sloBad:     make(map[string]bool),
	}
}

// Window returns the configured window width (0 on nil).
func (a *Aggregator) Window() sim.Time {
	if a == nil {
		return 0
	}
	return a.cfg.Window
}

// Bind subscribes the aggregator to a recorder's event stream and adopts
// its world log for health emission. Call once, before the run starts.
func (a *Aggregator) Bind(rec *obs.Recorder) {
	if a == nil || rec == nil {
		return
	}
	a.rec = rec
	rec.Subscribe(a.handleEvent)
}

// SetProbe registers the cumulative-counter snapshot callback sampled at
// window closes (core wires the medium and DHCP pools through this).
func (a *Aggregator) SetProbe(fn func() Probe) {
	if a == nil {
		return
	}
	a.probe = fn
}

// acc returns the open accumulator for the window containing at.
func (a *Aggregator) acc(at sim.Time) *winAcc {
	idx := int64(at / a.cfg.Window)
	if idx <= a.lastClosed {
		// An event at exactly a closed boundary (engine ordering put it
		// before the tick): attribute to the first open window rather
		// than silently dropping it.
		idx = a.lastClosed + 1
	}
	if idx == a.curIdx {
		return a.cur
	}
	w, ok := a.accs[idx]
	if !ok {
		w = a.newAcc()
		a.accs[idx] = w
	}
	a.curIdx, a.cur = idx, w
	return w
}

// newAcc returns an empty accumulator, reusing a closed window's.
func (a *Aggregator) newAcc() *winAcc {
	if n := len(a.spare); n > 0 {
		w := a.spare[n-1]
		a.spare = a.spare[:n-1]
		return w
	}
	return newWinAcc()
}

func (a *Aggregator) noteClient(id int) {
	if id < 0 {
		return
	}
	if id >= len(a.known) {
		grown := make([]bool, id+64)
		copy(grown, a.known)
		a.known = grown
	}
	if !a.known[id] {
		a.known[id] = true
		a.knownCount++
	}
}

// foldedKinds marks the event kinds the window accumulator folds; the
// rest skip the accumulator lookup entirely. No chatty kind (see
// obs.ClientLog.ChattyFlag) is folded, which is why a streaming recorder
// need not record them.
var foldedKinds = func() (m [obs.NumKinds]bool) {
	for _, k := range []obs.Kind{
		obs.KindJoinStart, obs.KindJoinComplete, obs.KindJoinFail,
		obs.KindOutageBegin, obs.KindOutageEnd,
		obs.KindLinkUp, obs.KindLinkDown, obs.KindHandoff,
		obs.KindFaultBegin, obs.KindIPAMAlloc, obs.KindIPAMFailover,
	} {
		m[k] = true
	}
	return
}()

// handleEvent folds one obs event into the open window. Runs
// synchronously on the sim goroutine.
func (a *Aggregator) handleEvent(e obs.Event) {
	if a.finished {
		return
	}
	a.noteClient(e.Client)
	if int(e.Kind) >= obs.NumKinds || !foldedKinds[e.Kind] {
		return
	}
	w := a.acc(e.At)
	switch e.Kind {
	case obs.KindJoinStart:
		w.joinStarts++
	case obs.KindJoinComplete:
		w.joinOKs++
		w.join.Observe(e.Value)
		if e.BSSID != "" {
			w.ap(e.BSSID).joinOKs++
		}
	case obs.KindJoinFail:
		w.joinFails++
		if e.BSSID != "" {
			w.ap(e.BSSID).joinFails++
		}
	case obs.KindOutageBegin:
		w.outageBegins++
		a.outOpen[e.Client] = e.At
	case obs.KindOutageEnd:
		if st, ok := a.outOpen[e.Client]; ok {
			if ov := e.At - st; ov > 0 {
				w.outage[e.Client] += int64(ov)
			}
			delete(a.outOpen, e.Client)
		}
	case obs.KindLinkUp:
		w.linkUps++
	case obs.KindLinkDown:
		w.linkDowns++
	case obs.KindHandoff:
		w.handoffs++
	case obs.KindFaultBegin:
		w.faultBegins++
	case obs.KindIPAMAlloc:
		w.ipamAllocs++
		if e.BSSID != "" {
			w.ap(e.BSSID).ipamAllocs++
		}
	case obs.KindIPAMFailover:
		w.ipamFailovers++
	}
}

// AddGoodput folds n delivered bytes for a client at sim time at — the
// per-flow receiver hook, called outside the event stream because
// deliveries are far too hot to emit as events.
func (a *Aggregator) AddGoodput(client int, at sim.Time, n int) {
	if a == nil || a.finished {
		return
	}
	a.noteClient(client)
	a.acc(at).goodput[client] += int64(n)
}

// AddRTT folds one TCP RTT sample (ns) at sim time at.
func (a *Aggregator) AddRTT(client int, at sim.Time, rtt sim.Time) {
	if a == nil || a.finished {
		return
	}
	a.noteClient(client)
	a.acc(at).rtt.Observe(int64(rtt))
}

// Tick closes every window whose end has passed. Core drives it from an
// engine Ticker at the window period, so normally exactly one window
// closes per call.
func (a *Aggregator) Tick(now sim.Time) {
	if a == nil || a.finished {
		return
	}
	for (a.lastClosed+2)*int64(a.cfg.Window) <= int64(now) {
		idx := a.lastClosed + 1
		last := (a.lastClosed+3)*int64(a.cfg.Window) > int64(now)
		a.closeWindow(idx, sim.Time((idx+1)*int64(a.cfg.Window)), last)
	}
}

// Finish closes the remaining (possibly partial) window at end of run.
// Further inputs are ignored; Windows()/exports are stable afterwards.
func (a *Aggregator) Finish(now sim.Time) {
	if a == nil || a.finished {
		return
	}
	for (a.lastClosed+1)*int64(a.cfg.Window) < int64(now) {
		idx := a.lastClosed + 1
		end := (idx + 1) * int64(a.cfg.Window)
		if end > int64(now) {
			end = int64(now)
		}
		a.closeWindow(idx, sim.Time(end), end == int64(now) || (idx+2)*int64(a.cfg.Window) >= int64(now))
		// closeWindow may emit health events at the boundary; drop any
		// accumulator they opened past the horizon.
	}
	a.finished = true
	a.accs = nil
	a.cur = nil
	a.spare = nil
}

// closeWindow finalizes the window [idx*W, end): splits open outages,
// samples the probe when this is the batch's last close, computes the
// derived series, evaluates SLOs, and appends the Window.
func (a *Aggregator) closeWindow(idx int64, end sim.Time, withProbe bool) {
	W := int64(a.cfg.Window)
	start := sim.Time(idx * W)
	acc, ok := a.accs[idx]
	if !ok {
		acc = a.newAcc()
	} else {
		delete(a.accs, idx)
	}
	if a.curIdx == idx {
		a.curIdx, a.cur = -1, nil
	}
	a.lastClosed = idx

	// Split outages still open across the closing boundary.
	for c, st := range a.outOpen {
		if st < end {
			from := st
			if from < start {
				from = start
			}
			acc.outage[c] += int64(end - from)
			a.outOpen[c] = end
		}
	}

	w := Window{
		Index:         idx,
		StartNS:       int64(start),
		EndNS:         int64(end),
		JoinStarts:    acc.joinStarts,
		JoinOKs:       acc.joinOKs,
		JoinFails:     acc.joinFails,
		OutageBegins:  acc.outageBegins,
		LinkUps:       acc.linkUps,
		LinkDowns:     acc.linkDowns,
		Handoffs:      acc.handoffs,
		FaultBegins:   acc.faultBegins,
		IPAMAllocs:    acc.ipamAllocs,
		IPAMFailovers: acc.ipamFailovers,
		JoinP50MS:     acc.join.Quantile(0.50) / 1e6,
		JoinP95MS:     acc.join.Quantile(0.95) / 1e6,
		JoinP99MS:     acc.join.Quantile(0.99) / 1e6,
		RTTP50MS:      acc.rtt.Quantile(0.50) / 1e6,
		RTTP95MS:      acc.rtt.Quantile(0.95) / 1e6,
		JoinHist:      acc.join.Sparse(),
		RTTHist:       acc.rtt.Sparse(),
	}

	// Probe deltas: cumulative world counters sampled once per close
	// batch; the whole delta lands on the batch's last window.
	if withProbe && a.probe != nil {
		p := a.probe()
		var prev Probe
		if a.haveProbe {
			prev = a.lastProbe
		}
		w.Clients = p.Clients
		w.Collisions = p.CumCollisions - prev.CumCollisions
		w.PoolExhausted = p.CumPoolExhausted - prev.CumPoolExhausted
		if len(p.Channels) > 0 {
			w.Channels = make([]ChannelRoll, len(p.Channels))
		}
		for i, c := range p.Channels {
			var prevAirtime int64
			for _, q := range prev.Channels {
				if q.Channel == c.Channel {
					prevAirtime = q.CumAirtimeNS
					break
				}
			}
			w.Channels[i] = ChannelRoll{
				Channel:    c.Channel,
				AirtimeNS:  c.CumAirtimeNS - prevAirtime,
				Contenders: c.Contenders,
			}
		}
		sort.Slice(w.Channels, func(i, j int) bool { return w.Channels[i].Channel < w.Channels[j].Channel })
		a.lastProbe, a.haveProbe = p, true
	}
	if w.Clients == 0 {
		w.Clients = a.knownCount
	}

	// Per-client series and the window's fairness index over the full
	// population (absent clients contribute zero goodput).
	var sum, sumSq float64
	ids := a.ids[:0]
	for c := range acc.goodput {
		ids = append(ids, c)
	}
	for c := range acc.outage {
		if _, ok := acc.goodput[c]; !ok {
			ids = append(ids, c)
		}
	}
	sort.Ints(ids)
	a.ids = ids
	if len(ids) > 0 {
		w.PerClient = make([]ClientRoll, len(ids))
	}
	for i, c := range ids {
		g := acc.goodput[c]
		w.PerClient[i] = ClientRoll{Client: c, GoodputBytes: g, OutageNS: acc.outage[c]}
		w.GoodputBytes += g
		w.OutageNS += acc.outage[c]
		sum += float64(g)
		sumSq += float64(g) * float64(g)
		if g > 0 {
			w.ActiveClients++
		}
	}
	n := w.Clients
	if n < len(ids) {
		n = len(ids)
	}
	if sumSq == 0 || n == 0 {
		w.Jain = 1
	} else {
		w.Jain = sum * sum / (float64(n) * sumSq)
	}

	// Per-AP series in BSSID order.
	bssids := a.bssids[:0]
	for b := range acc.perAP {
		bssids = append(bssids, b)
	}
	sort.Strings(bssids)
	a.bssids = bssids
	if len(bssids) > 0 {
		w.PerAP = make([]APRoll, len(bssids))
	}
	for i, b := range bssids {
		ap := acc.perAP[b]
		w.PerAP[i] = APRoll{BSSID: b, JoinOKs: ap.joinOKs, JoinFails: ap.joinFails, IPAMAllocs: ap.ipamAllocs}
	}
	acc.reset()
	a.spare = append(a.spare, acc)

	// SLO evaluation and health transitions. Events carry At = the
	// window boundary, so they land in the next window — evaluation
	// never feeds back into the window being closed.
	for _, r := range a.cfg.SLOs {
		v, bad, defined := r.violated(&w)
		if !defined {
			continue
		}
		was := a.sloBad[r.Name]
		if bad {
			w.Violations = append(w.Violations, r.Name)
		}
		if bad == was {
			continue
		}
		a.sloBad[r.Name] = bad
		kind := obs.KindHealthRecovered
		if bad {
			kind = obs.KindHealthViolation
			a.violations++
		}
		a.rec.Client(obs.WorldClient).Emit(obs.Event{
			At:    end,
			Kind:  kind,
			Value: int64(v * 1000),
			Note:  r.note(v, idx),
		})
	}

	a.windows = append(a.windows, w)
	if a.cfg.MaxWindows > 0 && len(a.windows) > a.cfg.MaxWindows {
		drop := len(a.windows) - a.cfg.MaxWindows
		a.droppedWindows += int64(drop)
		a.windows = append(a.windows[:0], a.windows[drop:]...)
	}
}

// Windows returns the closed windows in index order. The slice is the
// aggregator's own storage — callers must not mutate it.
func (a *Aggregator) Windows() []Window {
	if a == nil {
		return nil
	}
	return a.windows
}

// DroppedWindows returns how many closed windows were discarded to honor
// MaxWindows.
func (a *Aggregator) DroppedWindows() int64 {
	if a == nil {
		return 0
	}
	return a.droppedWindows
}

// WindowsClosed returns how many windows have closed, dropped ones
// included.
func (a *Aggregator) WindowsClosed() int64 {
	if a == nil {
		return 0
	}
	return int64(len(a.windows)) + a.droppedWindows
}

// Violations returns how many times an SLO rule entered violation.
func (a *Aggregator) Violations() int64 {
	if a == nil {
		return 0
	}
	return a.violations
}

// RollupLine is one line of the rollup JSONL export: one closed window,
// with an optional run label.
type RollupLine struct {
	Run    string  `json:"run,omitempty"`
	Window *Window `json:"window,omitempty"`
}

// WriteRollupsJSONL writes windows in order, one JSON object per line,
// with an optional run label.
func WriteRollupsJSONL(w io.Writer, run string, windows []Window) error {
	enc := json.NewEncoder(w)
	for i := range windows {
		if err := enc.Encode(RollupLine{Run: run, Window: &windows[i]}); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL exports this aggregator's closed windows.
func (a *Aggregator) WriteJSONL(w io.Writer, run string) error {
	if a == nil {
		return nil
	}
	return WriteRollupsJSONL(w, run, a.windows)
}

// FlightCounters is a zero shim kept only so perfbench still compiles:
// its telemetry.flight_events_kept metric is the one reader. The
// benchmark change that drops that metric (ROADMAP item 11) deletes
// both.
type FlightCounters struct {
	EventsKept int
}

// FlightCounters returns zero: the plane keeps no raw events.
func (a *Aggregator) FlightCounters() FlightCounters { return FlightCounters{} }
