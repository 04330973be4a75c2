package serve

import (
	"fmt"

	"spider/internal/chaos"
	"spider/internal/sim"
)

// Intent kinds. The set is the daemon's entire external input surface:
// if it isn't an intent, it cannot change the simulation, and therefore
// cannot break replay.
const (
	IntentAddClient   = "add-client"
	IntentInjectChaos = "inject-chaos"
	IntentStartFlow   = "start-flow"
	IntentStopFlow    = "stop-flow"
)

// Intent is one durable external input. An intent is accepted at a
// quiescent barrier (between engine steps), assigned the next sequence
// number and an absolute virtual apply time, fsynced to the WAL, and
// only then applied — so a crash can lose at most inputs that were never
// acknowledged, and replaying the log re-applies every acknowledged
// input at exactly its original virtual time.
type Intent struct {
	// Seq is the WAL sequence number (dense, starting at 0).
	Seq uint64 `json:"seq"`
	// ApplyAtNS is the absolute virtual time the intent applies at.
	ApplyAtNS int64 `json:"apply_at_ns"`
	// Kind selects the payload below.
	Kind string `json:"kind"`

	// Client is the add-client payload.
	Client *ClientSpec `json:"client,omitempty"`
	// Chaos is the inject-chaos payload (absolute virtual event times;
	// times already past clamp to the apply time).
	Chaos *chaos.Plan `json:"chaos,omitempty"`
	// TargetClient addresses start-flow / stop-flow.
	TargetClient int `json:"target_client,omitempty"`
	// FlowBytes bounds each started flow (<=0 = unbounded bulk).
	FlowBytes int64 `json:"flow_bytes,omitempty"`
}

// ApplyAt returns the apply time as a sim.Time.
func (in Intent) ApplyAt() sim.Time { return sim.Time(in.ApplyAtNS) }

// validate checks the payload shape (not world state: a start-flow for a
// client that never materializes is accepted, logged, and rejected at
// apply time — the rejection itself is then deterministic and replayable).
func (in Intent) validate() error {
	switch in.Kind {
	case IntentAddClient:
		if in.Client == nil {
			return fmt.Errorf("serve: %s intent without client spec", in.Kind)
		}
		if _, err := in.Client.ClientConfig(); err != nil {
			return err
		}
	case IntentInjectChaos:
		if in.Chaos == nil || in.Chaos.Empty() {
			return fmt.Errorf("serve: %s intent without a non-empty plan", in.Kind)
		}
		for i, p := range in.Chaos.Procs {
			if err := checkPeriod("Mean", p.Mean); err != nil {
				return fmt.Errorf("serve: %s intent procs[%d]: %w", in.Kind, i, err)
			}
		}
	case IntentStartFlow, IntentStopFlow:
		if in.TargetClient < 0 || in.TargetClient > 65535 {
			return fmt.Errorf("serve: %s intent target %d out of range", in.Kind, in.TargetClient)
		}
	default:
		return fmt.Errorf("serve: unknown intent kind %q", in.Kind)
	}
	return nil
}
