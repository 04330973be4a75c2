package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spider/internal/obs"
	"spider/internal/sim"
	"spider/internal/telemetry"
)

// DaemonConfig tunes the serve loop. Zero values pick the defaults
// noted on each field.
type DaemonConfig struct {
	// Quantum is the virtual time advanced per loop iteration — the
	// granularity at which intents are picked up and checkpoints can
	// land (default 1s virtual).
	Quantum sim.Time
	// Until, when positive, stops the daemon (drain + checkpoint) once
	// the clock reaches it; capped by the spec horizon. Zero serves
	// until the horizon, or forever if the spec has none.
	Until sim.Time
	// Pace throttles virtual progress to Pace× real time (1.0 = real
	// time, 60 = a virtual minute per wall second). 0 = free-running.
	Pace float64
	// QueueLen bounds the control queue; a full queue answers 429 with
	// Retry-After rather than stalling the loop (default 64).
	QueueLen int
	// RequestDeadline bounds how long an API request waits for the loop
	// to pick it up and answer before the handler gives up with 503
	// (default 2s wall).
	RequestDeadline time.Duration
	// StepDeadline is the wall-clock budget for one quantum; a step
	// overrunning it records a serve.stall lifecycle event (default 5s).
	StepDeadline time.Duration
	// CheckpointEvery checkpoints each time the virtual clock crosses a
	// multiple of it (default 30s virtual; negative disables).
	CheckpointEvery sim.Time
}

// subscriberBuffer bounds each event subscriber's channel; a slow
// subscriber drops events (counted) instead of stalling the loop.
const subscriberBuffer = 1024

func (c DaemonConfig) withDefaults() DaemonConfig {
	if c.Quantum <= 0 {
		c.Quantum = sim.Time(time.Second)
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 64
	}
	if c.RequestDeadline <= 0 {
		c.RequestDeadline = 2 * time.Second
	}
	if c.StepDeadline <= 0 {
		c.StepDeadline = 5 * time.Second
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = sim.Time(30 * time.Second)
	}
	return c
}

// Status is the lock-free status cell /v1/status serves from: reading
// it never waits on the simulation loop, so liveness probes keep
// working through a stalled step.
type Status struct {
	ConfigHash     string  `json:"config_hash"`
	SimTimeNS      int64   `json:"sim_time_ns"`
	RestoredNS     int64   `json:"restored_ns"`
	HorizonNS      int64   `json:"horizon_ns,omitempty"`
	Clients        int     `json:"clients"`
	EngineQueue    int     `json:"engine_queue"`
	PendingIntents int     `json:"pending_intents"`
	AppliedIntents uint64  `json:"applied_intents"`
	NextSeq        uint64  `json:"next_seq"`
	EventsRecorded uint64  `json:"events_recorded"`
	EventsDropped  uint64  `json:"events_dropped"`
	LastStepWallNS int64   `json:"last_step_wall_ns"`
	Stalls         uint64  `json:"stalls"`
	Checkpoints    uint64  `json:"checkpoints"`
	UptimeSec      float64 `json:"uptime_sec"`
	Draining       bool    `json:"draining"`
}

// ctrlReq is one unit of work executed by the loop at a quiescent
// barrier. resp is buffered so an abandoned (timed-out) request can
// never block the loop.
type ctrlReq struct {
	do   func() (any, error)
	resp chan ctrlResp
}

type ctrlResp struct {
	v   any
	err error
}

// subscriber is one live /v1/events stream.
type subscriber struct {
	ch      chan obs.Event
	dropped uint64 // loop-side counter, read under subs.mu
}

// Daemon drives a Server on a single loop goroutine and exposes it over
// HTTP. All simulation access is funneled through the control queue, so
// intents are only ever accepted between engine steps — the invariant
// the WAL's replayability rests on.
type Daemon struct {
	srv   *Server
	cfg   DaemonConfig
	ctrl  chan ctrlReq
	done  chan struct{}
	stop  chan struct{} // closed by /v1/shutdown or Stop
	stopO sync.Once

	status atomic.Pointer[Status]
	start  time.Time

	eventsSeen atomic.Uint64
	dropped    atomic.Uint64
	stalls     atomic.Uint64
	ckpts      uint64 // loop-goroutine only
	draining   atomic.Bool

	subs   map[int]*subscriber
	subsMu sync.Mutex
	nextID int

	runErr error // set before done closes
}

// NewDaemon wraps an opened server. Call Run (usually in a goroutine)
// to start the loop, and Handler for the HTTP API.
func NewDaemon(srv *Server, cfg DaemonConfig) *Daemon {
	d := &Daemon{
		srv:   srv,
		cfg:   cfg.withDefaults(),
		done:  make(chan struct{}),
		stop:  make(chan struct{}),
		subs:  make(map[int]*subscriber),
		start: time.Now(),
	}
	d.ctrl = make(chan ctrlReq, d.cfg.QueueLen)
	// One fan-out subscriber on the deterministic recorder; registered
	// before the loop starts, so recording never races the append.
	srv.Recorder().Subscribe(func(ev obs.Event) {
		d.eventsSeen.Add(1)
		d.subsMu.Lock()
		for _, sub := range d.subs {
			select {
			case sub.ch <- ev:
			default:
				sub.dropped++
				d.dropped.Add(1)
			}
		}
		d.subsMu.Unlock()
	})
	d.publishStatus(0)
	return d
}

// Run executes the serve loop until the horizon/Until is reached, Stop
// or /v1/shutdown is called, or ctx is cancelled. On every exit path it
// drains: applies nothing new, checkpoints, and closes the WAL. Returns
// the first fatal error (WAL/checkpoint I/O), if any.
func (d *Daemon) Run(ctx context.Context) error {
	defer close(d.done)
	defer d.closeSubs()

	limit := sim.Time(d.srv.Spec().HorizonNS)
	if d.cfg.Until > 0 && (limit == 0 || d.cfg.Until < limit) {
		limit = d.cfg.Until
	}

	for {
		// Serve queued control work at the quiescent barrier.
		if stop := d.drainCtrl(ctx); stop {
			return d.shutdown()
		}

		now := d.srv.Now()
		if limit > 0 && now >= limit {
			return d.shutdown()
		}

		// Idle worlds (no scheduled events, no pending intents, nothing
		// to pace toward) block instead of spinning.
		if limit == 0 && d.srv.Scenario().Engine().Pending() == 0 && d.srv.Pending() == 0 {
			if stop := d.waitCtrl(ctx); stop {
				return d.shutdown()
			}
			continue
		}

		target := now + d.cfg.Quantum
		if limit > 0 && target > limit {
			target = limit
		}
		stepStart := time.Now()
		d.srv.Advance(target)
		wall := time.Since(stepStart)
		if wall > d.cfg.StepDeadline {
			d.stalls.Add(1)
			d.srv.Lifecycle().World().Emit(obs.Event{
				At:    d.srv.Now(),
				Kind:  obs.KindServeStall,
				Value: wall.Nanoseconds(),
				Note:  fmt.Sprintf("budget %s", d.cfg.StepDeadline),
			})
		}

		if d.cfg.CheckpointEvery > 0 &&
			now/d.cfg.CheckpointEvery != d.srv.Now()/d.cfg.CheckpointEvery {
			if err := d.srv.Checkpoint(); err != nil {
				d.runErr = err
				return d.shutdown()
			}
			d.ckpts++
		}
		d.publishStatus(wall)

		if d.cfg.Pace > 0 {
			budget := time.Duration(float64(d.cfg.Quantum)/d.cfg.Pace) - wall
			if stop := d.pace(ctx, budget); stop {
				return d.shutdown()
			}
		}
	}
}

// shutdown is the single exit path: final checkpoint, WAL close.
func (d *Daemon) shutdown() error {
	d.draining.Store(true)
	if err := d.srv.Checkpoint(); err != nil && d.runErr == nil {
		d.runErr = err
	}
	d.ckpts++
	d.publishStatus(0)
	if err := d.srv.Close(); err != nil && d.runErr == nil {
		d.runErr = err
	}
	return d.runErr
}

// drainCtrl serves all queued control requests; reports whether the
// daemon should stop.
func (d *Daemon) drainCtrl(ctx context.Context) bool {
	for {
		select {
		case <-ctx.Done():
			return true
		case <-d.stop:
			return true
		case req := <-d.ctrl:
			req.run()
		default:
			return false
		}
	}
}

// waitCtrl blocks until control work, stop, or cancellation arrives.
func (d *Daemon) waitCtrl(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	case <-d.stop:
		return true
	case req := <-d.ctrl:
		req.run()
		return false
	}
}

// pace sleeps off the real-time budget while staying responsive to
// control work (the loop is at a quiescent barrier the whole time).
func (d *Daemon) pace(ctx context.Context, budget time.Duration) bool {
	if budget <= 0 {
		return false
	}
	timer := time.NewTimer(budget)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return true
		case <-d.stop:
			return true
		case req := <-d.ctrl:
			req.run()
		case <-timer.C:
			return false
		}
	}
}

func (r ctrlReq) run() {
	v, err := r.do()
	r.resp <- ctrlResp{v: v, err: err}
}

// Stop asks the loop to drain and exit; Run returns once it has.
func (d *Daemon) Stop() { d.stopO.Do(func() { close(d.stop) }) }

func (d *Daemon) publishStatus(lastStep time.Duration) {
	st := &Status{
		ConfigHash:     d.srv.Hash(),
		SimTimeNS:      int64(d.srv.Now()),
		RestoredNS:     int64(d.srv.Restored()),
		HorizonNS:      d.srv.Spec().HorizonNS,
		Clients:        len(d.srv.Scenario().Clients()),
		EngineQueue:    d.srv.Scenario().Engine().Pending(),
		PendingIntents: d.srv.Pending(),
		AppliedIntents: d.srv.Applied(),
		NextSeq:        d.srv.NextSeq(),
		EventsRecorded: d.eventsSeen.Load(),
		EventsDropped:  d.dropped.Load(),
		LastStepWallNS: lastStep.Nanoseconds(),
		Stalls:         d.stalls.Load(),
		Checkpoints:    d.ckpts,
		UptimeSec:      time.Since(d.start).Seconds(),
		Draining:       d.draining.Load(),
	}
	d.status.Store(st)
}

// closeSubs closes every live event stream at loop exit.
func (d *Daemon) closeSubs() {
	d.subsMu.Lock()
	defer d.subsMu.Unlock()
	for id, sub := range d.subs {
		close(sub.ch)
		delete(d.subs, id)
	}
}

// ask funnels a closure to the loop goroutine, honoring queue bounds
// and the request deadline. The closure runs at a quiescent barrier.
func (d *Daemon) ask(do func() (any, error)) (any, int, error) {
	req := ctrlReq{do: do, resp: make(chan ctrlResp, 1)}
	select {
	case d.ctrl <- req:
	default:
		return nil, http.StatusTooManyRequests, fmt.Errorf("control queue full (%d deep)", d.cfg.QueueLen)
	}
	select {
	case resp := <-req.resp:
		if resp.err != nil {
			return nil, http.StatusUnprocessableEntity, resp.err
		}
		return resp.v, http.StatusOK, nil
	case <-time.After(d.cfg.RequestDeadline):
		return nil, http.StatusServiceUnavailable, fmt.Errorf("simulation loop unresponsive for %s", d.cfg.RequestDeadline)
	case <-d.done:
		return nil, http.StatusServiceUnavailable, fmt.Errorf("daemon stopped")
	}
}

// Handler returns the HTTP API:
//
//	GET  /v1/status   — lock-free status cell (never blocks on the loop)
//	GET  /v1/metrics  — scenario metrics, Prometheus text exposition
//	GET  /v1/rollups  — closed telemetry windows
//	                    (?from_ns= &to_ns= &last= filter; 404 if disabled)
//	GET  /v1/events   — JSONL stream: recorded backlog, then live events
//	POST /v1/intents  — durably accept one intent (body: Intent JSON,
//	                    optional "after_ns" field for delayed apply)
//	POST /v1/snapshot — checkpoint now
//	POST /v1/shutdown — drain: checkpoint, close WAL, exit loop
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/status", d.handleStatus)
	mux.HandleFunc("GET /v1/metrics", d.handleMetrics)
	mux.HandleFunc("GET /v1/rollups", d.handleRollups)
	mux.HandleFunc("GET /v1/events", d.handleEvents)
	mux.HandleFunc("POST /v1/intents", d.handleIntent)
	mux.HandleFunc("POST /v1/snapshot", d.handleSnapshot)
	mux.HandleFunc("POST /v1/shutdown", d.handleShutdown)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (d *Daemon) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, d.status.Load())
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Prometheus text exposition of the world's counters, read loop-side
	// so the snapshot is quiescent and exact. Line order is pinned
	// (counters then gauges, each by name) so two scrapes of the same
	// state are byte-identical.
	v, code, err := d.ask(func() (any, error) {
		return obs.RenderPrometheus(d.srv.Scenario().Metrics()), nil
	})
	if err != nil {
		writeErr(w, code, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, v.(string))
}

// rollupsResponse is the GET /v1/rollups body.
type rollupsResponse struct {
	Windows        []telemetry.Window `json:"windows"`
	DroppedWindows int64              `json:"dropped_windows,omitempty"`
}

func (d *Daemon) handleRollups(w http.ResponseWriter, r *http.Request) {
	if d.srv.Telemetry() == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("telemetry disabled by world spec"))
		return
	}
	q := r.URL.Query()
	parse := func(key string) (int64, error) {
		s := q.Get(key)
		if s == "" {
			return 0, nil
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("bad %s %q", key, s)
		}
		return v, nil
	}
	var fromNS, toNS, last int64
	var err error
	if fromNS, err = parse("from_ns"); err == nil {
		if toNS, err = parse("to_ns"); err == nil {
			last, err = parse("last")
		}
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	v, code, err := d.ask(func() (any, error) {
		tel := d.srv.Telemetry()
		wins := tel.Windows()
		out := make([]telemetry.Window, 0, len(wins))
		for _, win := range wins {
			if fromNS > 0 && win.EndNS <= fromNS {
				continue
			}
			if toNS > 0 && win.StartNS >= toNS {
				continue
			}
			out = append(out, win)
		}
		if last > 0 && int64(len(out)) > last {
			out = out[int64(len(out))-last:]
		}
		return rollupsResponse{
			Windows:        out,
			DroppedWindows: tel.DroppedWindows(),
		}, nil
	})
	if err != nil {
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// intentRequest is the POST /v1/intents body: an Intent plus the apply
// delay. Seq and ApplyAtNS are assigned by the daemon — values sent by
// the client are ignored.
type intentRequest struct {
	Intent
	AfterNS int64 `json:"after_ns,omitempty"`
}

// maxIntentBody bounds an intent POST body. Real intents are a few
// hundred bytes; the cap keeps a hostile or broken client from making the
// handler buffer an unbounded JSON document.
const maxIntentBody = 1 << 20

func (d *Daemon) handleIntent(w http.ResponseWriter, r *http.Request) {
	var req intentRequest
	if err := DecodeStrict(http.MaxBytesReader(w, r.Body, maxIntentBody), &req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, fmt.Errorf("bad intent body: %w", err))
		return
	}
	v, code, err := d.ask(func() (any, error) {
		return d.srv.Accept(req.Intent, sim.Time(req.AfterNS))
	})
	if err != nil {
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (d *Daemon) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	_, code, err := d.ask(func() (any, error) {
		if err := d.srv.Checkpoint(); err != nil {
			return nil, err
		}
		d.ckpts++
		return nil, nil
	})
	if err != nil {
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sim_time_ns": d.status.Load().SimTimeNS,
	})
}

func (d *Daemon) handleShutdown(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "draining"})
	d.Stop()
}

func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	// Register the subscriber and snapshot the backlog in one loop-side
	// step, so the stream has no gap between backlog and live tail.
	v, code, err := d.ask(func() (any, error) {
		sub := &subscriber{ch: make(chan obs.Event, subscriberBuffer)}
		d.subsMu.Lock()
		id := d.nextID
		d.nextID++
		d.subs[id] = sub
		d.subsMu.Unlock()
		return [2]any{id, d.srv.Recorder().Events()}, nil
	})
	if err != nil {
		writeErr(w, code, err)
		return
	}
	pair := v.([2]any)
	id, backlog := pair[0].(int), pair[1].([]obs.Event)
	defer func() {
		d.subsMu.Lock()
		if sub, ok := d.subs[id]; ok {
			close(sub.ch)
			delete(d.subs, id)
		}
		d.subsMu.Unlock()
	}()
	d.subsMu.Lock()
	sub := d.subs[id]
	d.subsMu.Unlock()
	if sub == nil {
		// Loop exited (closeSubs) between registration and here; the
		// backlog is still a complete, valid stream.
		sub = &subscriber{ch: make(chan obs.Event)}
		close(sub.ch)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	for _, ev := range backlog {
		if err := enc.Encode(ev); err != nil {
			return
		}
	}
	flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.ch:
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			flush()
		}
	}
}
