package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"spider/internal/core"
	"spider/internal/obs"
	"spider/internal/sim"
	"spider/internal/telemetry"
)

// Server owns one live scenario plus its durability state: the world
// spec, the write-ahead intent log, and the checkpoint marker. It is not
// safe for concurrent use — the Daemon (http.go) serializes everything
// onto one loop goroutine, which is exactly what keeps intent
// acceptance at quiescent barriers.
type Server struct {
	dir  string
	spec *WorldSpec
	hash string

	scn *core.Scenario
	// rec is the scenario's deterministic recorder — the artifact the
	// bit-identical-resume contract covers.
	rec *obs.Recorder
	// tel is the world's streaming aggregation plane (nil when the spec
	// disables it). Rebuilt fresh on every Open and refilled by replay,
	// so its rollups share the recorder's bit-identical-resume contract.
	tel *telemetry.Aggregator
	// life is the daemon's own telemetry recorder (serve.* events). It
	// is explicitly outside the determinism contract: restore, stall,
	// and WAL-repair events describe this process's life, not the
	// simulated world's.
	life *obs.Recorder

	wal *WAL
	// pending holds accepted-but-unapplied intents in (ApplyAt, Seq)
	// order; Advance drains it as the clock passes each apply time.
	pending []Intent
	nextSeq uint64
	applied uint64
	// restored reports how far Open's replay advanced (the snapshot
	// time, or further if later intents were already durable).
	restored sim.Time
}

// Open boots a server from a state directory, creating it on first use.
//
// Fresh directory: spec is required; it is validated and persisted as
// config.json. Existing directory: the persisted spec wins (a non-nil
// spec argument must hash identically — changing the world under an
// existing intent log is refused, because replaying old intents into a
// new world would fabricate a plausible-but-wrong history).
//
// Open then recovers the WAL (repairing a torn tail), rebuilds the
// world from the spec, and replays every recovered intent at its
// recorded virtual time, leaving the clock at least at the last
// checkpoint. The scenario's event/span streams after Open are
// byte-identical to the uninterrupted run's streams up to that time.
func Open(dir string, spec *WorldSpec) (*Server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	onDisk, haveCfg, err := loadConfig(dir)
	if err != nil {
		return nil, err
	}
	switch {
	case haveCfg && spec != nil && spec.Hash() != onDisk.Hash():
		return nil, fmt.Errorf("serve: %s/%s exists with config hash %s, refusing supplied spec %s",
			dir, configFile, onDisk.Hash(), spec.Hash())
	case haveCfg:
		spec = onDisk
	case spec == nil:
		return nil, fmt.Errorf("serve: fresh directory %s needs a world spec", dir)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !haveCfg {
		if err := saveConfig(dir, spec); err != nil {
			return nil, err
		}
	}

	s := &Server{
		dir:  dir,
		spec: spec,
		hash: spec.Hash(),
		rec:  obs.NewRecorder(),
		life: obs.NewRecorder(),
	}

	wal, intents, info, err := OpenWAL(filepath.Join(dir, walFile))
	if err != nil {
		return nil, err
	}
	s.wal = wal

	snap, haveSnap, err := loadSnapshot(dir)
	if err != nil {
		wal.Close()
		return nil, err
	}
	if haveSnap {
		if snap.ConfigHash != s.hash {
			wal.Close()
			return nil, fmt.Errorf("serve: snapshot config hash %s != %s", snap.ConfigHash, s.hash)
		}
		if uint64(len(intents)) < snap.AppliedIntents {
			// The WAL lost records a checkpoint already counted as
			// applied. That is not a torn tail (those were never
			// acknowledged) — it is mid-log corruption, and replaying
			// the remainder would produce a different timeline than the
			// one clients observed. Refuse loudly.
			wal.Close()
			return nil, fmt.Errorf("serve: WAL holds %d intents but snapshot applied %d — mid-log corruption",
				len(intents), snap.AppliedIntents)
		}
	}

	// Build the world and declared clients at virtual time zero.
	s.scn, s.tel, err = spec.start(s.rec)
	if err != nil {
		wal.Close()
		return nil, err
	}

	if info.TruncatedBytes > 0 {
		s.life.World().Emit(obs.Event{
			At:    s.Now(),
			Kind:  obs.KindServeWALTruncated,
			Value: info.TruncatedBytes,
			Note:  fmt.Sprintf("%d intact records kept", info.Records),
		})
	}

	// Queue every recovered intent and replay to the restore horizon:
	// the checkpointed clock, or the latest durable apply time if
	// intents outran the last checkpoint.
	s.pending = intents
	sortPending(s.pending)
	for _, in := range intents {
		if in.Seq >= s.nextSeq {
			s.nextSeq = in.Seq + 1
		}
	}
	target := sim.Time(0)
	if haveSnap {
		if snap.NextSeq > s.nextSeq {
			s.nextSeq = snap.NextSeq
		}
		target = sim.Time(snap.SimTimeNS)
	}
	if n := len(s.pending); n > 0 {
		if last := s.pending[n-1].ApplyAt(); last > target {
			target = last
		}
	}
	if target > 0 || len(s.pending) > 0 {
		s.Advance(target)
	}
	s.restored = s.Now()
	if haveSnap || len(intents) > 0 {
		s.life.World().Emit(obs.Event{
			At:    s.Now(),
			Kind:  obs.KindServeRestore,
			Value: int64(s.applied),
			Note:  fmt.Sprintf("clock %s", s.Now()),
		})
	}
	return s, nil
}

// sortPending orders intents by (ApplyAt, Seq) — the application order
// the advance loop consumes.
func sortPending(p []Intent) {
	sort.SliceStable(p, func(i, j int) bool {
		if p[i].ApplyAtNS != p[j].ApplyAtNS {
			return p[i].ApplyAtNS < p[j].ApplyAtNS
		}
		return p[i].Seq < p[j].Seq
	})
}

// Now returns the virtual clock.
func (s *Server) Now() sim.Time { return s.scn.Engine().Now() }

// Accept durably admits one intent at the current quiescent barrier.
// The apply time is now + after (after < 0 clamps to 0). The intent is
// fsynced to the WAL before Accept returns — acknowledgement implies
// the input survives any crash after this point.
func (s *Server) Accept(in Intent, after sim.Time) (Intent, error) {
	if err := in.validate(); err != nil {
		return Intent{}, err
	}
	if after < 0 {
		after = 0
	}
	in.Seq = s.nextSeq
	in.ApplyAtNS = int64(s.Now() + after)
	if err := s.wal.Append(in); err != nil {
		return Intent{}, fmt.Errorf("serve: WAL append: %w", err)
	}
	s.nextSeq++
	s.pending = append(s.pending, in)
	sortPending(s.pending)
	return in, nil
}

// Advance runs virtual time forward to the given absolute time,
// applying pending intents at exactly their recorded apply times. The
// barrier sequence Advance happens to take cannot affect the event
// streams (quantum-subdivision invariance, TestSteppedRunMatchesBatchRun),
// so live stepping and restore replay converge on identical artifacts.
func (s *Server) Advance(to sim.Time) sim.Time {
	for {
		now := s.Now()
		for len(s.pending) > 0 && s.pending[0].ApplyAt() <= now {
			in := s.pending[0]
			s.pending = s.pending[1:]
			s.apply(in)
		}
		if now >= to {
			return now
		}
		barrier := to
		if len(s.pending) > 0 && s.pending[0].ApplyAt() < barrier {
			barrier = s.pending[0].ApplyAt()
		}
		s.scn.StepUntil(barrier)
	}
}

// apply executes one intent against the live world. Failures are
// recorded, not fatal: the same intent replayed into the same world
// fails the same way, so a rejected intent is still deterministic.
func (s *Server) apply(in Intent) {
	note := in.Kind
	err := s.applyErr(in)
	if err != nil {
		note = "rejected:" + err.Error()
	}
	s.applied++
	s.life.World().Emit(obs.Event{
		At:    s.Now(),
		Kind:  obs.KindServeIntent,
		Value: int64(in.Seq),
		Note:  note,
	})
}

func (s *Server) applyErr(in Intent) error {
	switch in.Kind {
	case IntentAddClient:
		cc, err := in.Client.ClientConfig()
		if err != nil {
			return err
		}
		return s.scn.AddClientNow(cc)
	case IntentInjectChaos:
		return s.scn.InjectPlan(*in.Chaos)
	case IntentStartFlow:
		c := s.scn.ClientByID(in.TargetClient)
		if c == nil {
			return fmt.Errorf("no client %d", in.TargetClient)
		}
		c.StartFlows(in.FlowBytes)
		return nil
	case IntentStopFlow:
		c := s.scn.ClientByID(in.TargetClient)
		if c == nil {
			return fmt.Errorf("no client %d", in.TargetClient)
		}
		c.StopFlows()
		return nil
	}
	return fmt.Errorf("unknown intent kind %q", in.Kind)
}

// Checkpoint durably records progress: the WAL is already on disk, so
// the marker only has to pin (clock, next seq, applied count) — written
// atomically, never in place.
func (s *Server) Checkpoint() error {
	err := saveSnapshot(s.dir, Snapshot{
		Version:        snapshotVersion,
		ConfigHash:     s.hash,
		Seed:           s.spec.Seed,
		SimTimeNS:      int64(s.Now()),
		NextSeq:        s.nextSeq,
		AppliedIntents: s.applied,
	})
	if err != nil {
		return err
	}
	s.life.World().Emit(obs.Event{
		At:    s.Now(),
		Kind:  obs.KindServeCheckpoint,
		Value: int64(s.applied),
	})
	return nil
}

// Close releases the WAL. It does not checkpoint — callers decide
// whether this shutdown is graceful (Daemon checkpoints first) or a
// simulated crash (tests just Close, or don't even that).
func (s *Server) Close() error { return s.wal.Close() }

// Spec returns the world spec the server runs.
func (s *Server) Spec() *WorldSpec { return s.spec }

// Hash returns the config hash snapshots are pinned to.
func (s *Server) Hash() string { return s.hash }

// Scenario exposes the live scenario (status introspection; mutating it
// other than through intents voids the replay warranty).
func (s *Server) Scenario() *core.Scenario { return s.scn }

// Recorder returns the scenario's deterministic recorder.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// Telemetry returns the streaming aggregation plane (nil when the spec
// disables it).
func (s *Server) Telemetry() *telemetry.Aggregator { return s.tel }

// Lifecycle returns the daemon telemetry recorder (serve.* events).
func (s *Server) Lifecycle() *obs.Recorder { return s.life }

// Pending returns the number of accepted, not-yet-applied intents.
func (s *Server) Pending() int { return len(s.pending) }

// Applied returns the number of intents applied so far.
func (s *Server) Applied() uint64 { return s.applied }

// NextSeq returns the next intent sequence number to be assigned.
func (s *Server) NextSeq() uint64 { return s.nextSeq }

// Restored returns the clock position Open's replay reached (zero for a
// fresh world).
func (s *Server) Restored() sim.Time { return s.restored }
