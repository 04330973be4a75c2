package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"spider/internal/atomicwrite"
)

// On-disk layout of a serve state directory:
//
//	config.json   — the WorldSpec, written once at first boot
//	intents.wal   — the write-ahead intent log (wal.go)
//	snapshot.json — the latest checkpoint marker (this file)
//
// Note what is absent: no serialized simulation state. The snapshot is a
// progress marker, not a state dump — restore always rebuilds from the
// spec and replays the WAL from virtual time zero. That makes the
// checkpoint trivially consistent (two small atomic files plus an
// append-only log) at the cost of replay time proportional to sim
// history, which for this simulator is orders of magnitude faster than
// real time.
const (
	configFile   = "config.json"
	walFile      = "intents.wal"
	snapshotFile = "snapshot.json"
)

// snapshotVersion guards the marker format.
const snapshotVersion = 1

// Snapshot is the durable progress marker: how far virtual time had
// advanced, and how much of the intent log was already applied, at the
// moment of the checkpoint. Restore advances at least this far before
// serving again, so a resumed daemon never hands out a virtual clock
// that runs backwards across the crash.
type Snapshot struct {
	Version    int    `json:"version"`
	ConfigHash string `json:"config_hash"`
	Seed       int64  `json:"seed"`
	// SimTimeNS is the virtual clock at checkpoint.
	SimTimeNS int64 `json:"sim_time_ns"`
	// NextSeq is the next intent sequence number to assign.
	NextSeq uint64 `json:"next_seq"`
	// AppliedIntents counts intents applied before the checkpoint.
	AppliedIntents uint64 `json:"applied_intents"`
}

// saveSnapshot atomically publishes the marker (temp + fsync + rename).
func saveSnapshot(dir string, s Snapshot) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return atomicwrite.WriteFile(filepath.Join(dir, snapshotFile), append(b, '\n'), 0o644)
}

// loadSnapshot reads the marker; ok=false when none exists yet.
func loadSnapshot(dir string) (Snapshot, bool, error) {
	b, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if os.IsNotExist(err) {
		return Snapshot{}, false, nil
	}
	if err != nil {
		return Snapshot{}, false, err
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return Snapshot{}, false, fmt.Errorf("serve: corrupt %s: %w", snapshotFile, err)
	}
	if s.Version != snapshotVersion {
		return Snapshot{}, false, fmt.Errorf("serve: snapshot version %d (want %d)", s.Version, snapshotVersion)
	}
	return s, true, nil
}

// saveConfig atomically writes the world spec.
func saveConfig(dir string, spec *WorldSpec) error {
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return atomicwrite.WriteFile(filepath.Join(dir, configFile), append(b, '\n'), 0o644)
}

// loadConfig reads the world spec; ok=false when the directory is fresh.
func loadConfig(dir string) (*WorldSpec, bool, error) {
	b, err := os.ReadFile(filepath.Join(dir, configFile))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var spec WorldSpec
	if err := DecodeStrict(bytes.NewReader(b), &spec); err != nil {
		return nil, false, fmt.Errorf("serve: %s: %w", configFile, err)
	}
	return &spec, true, nil
}
