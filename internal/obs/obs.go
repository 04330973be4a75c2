// Package obs is the structured observability subsystem: a per-client
// typed event log and causal span tree recorded in simulation time, the
// Prometheus rendering of a world's counter snapshot, and the wall-clock
// seam every telemetry consumer reads through.
//
// Three properties make it safe to leave wired into the hot paths:
//
//  1. Determinism. Events carry only simulation time — never wall clock —
//     and export ordered by (sim-time, client ID, sequence), so a given
//     (seed, scenario) emits a byte-identical stream at any fleet worker
//     count. Recording draws no randomness, so an instrumented run
//     computes exactly what an uninstrumented one does.
//  2. Near-zero disabled cost. Every entry point is nil-safe: a nil
//     *ClientLog or *ActiveSpan turns the call into a single pointer
//     test. Counts live in the layers' own plain stats and are read when
//     a snapshot is taken, so the hot paths never pay for metrics.
//  3. No dependencies. The package imports only the sim kernel and the
//     standard library, so every layer — phy, driver, dhcp, lmm, chaos,
//     core, fleet — can thread it without import cycles.
//
// The event taxonomy follows the join-phase timeline the paper's model
// (Eq. 5-7) is built from: channel dwell (w), per-phase handshake progress
// (probe/auth/assoc), DHCP acquisition (c, β), and the link/outage
// lifecycle the evaluation's disruption figures aggregate.
package obs

import (
	"encoding/json"
	"fmt"
	"strings"

	"spider/internal/sim"
)

// Kind is the typed event taxonomy. The numeric values index Summary
// counts and must stay append-only for artifact compatibility.
type Kind uint8

const (
	// KindChannelSwitch marks the driver committing a hardware retune
	// (Channel = target channel).
	KindChannelSwitch Kind = iota
	// KindProbe marks an active probe request on the current channel.
	KindProbe
	// KindAuth marks one transmitted link-layer authentication attempt.
	KindAuth
	// KindAssoc marks one transmitted association attempt.
	KindAssoc
	// KindDHCPOffer / Ack / Nak mark server messages reaching the client.
	KindDHCPOffer
	KindDHCPAck
	KindDHCPNak
	// KindDHCPRenew marks a mid-lease renewal outcome (Note: ok/failed).
	KindDHCPRenew
	// KindPSMDrain marks the post-switch flush of a channel's queued
	// frames (Value = frames drained).
	KindPSMDrain
	// KindHandoff marks a link established to a different AP than the
	// client's previous one.
	KindHandoff
	// KindLinkUp / KindLinkDown mark the link lifecycle.
	KindLinkUp
	KindLinkDown
	// KindOutageBegin / KindOutageEnd bracket windows with zero live
	// links (OutageEnd.Value = outage length in ns).
	KindOutageBegin
	KindOutageEnd
	// KindFaultBegin / KindFaultEnd bracket injected chaos faults
	// (Note = fault kind, Value = resolved AP index or -1).
	KindFaultBegin
	KindFaultEnd
	// KindJoinStart / Complete / Fail bracket one join-pipeline attempt
	// (Value = total duration in ns for the terminal events).
	KindJoinStart
	KindJoinComplete
	KindJoinFail
	// KindIPAMAlloc / Failover / GC are the address-plane lifecycle
	// (internal/ipam): a fresh lease granted, an allocation served by a
	// non-primary pool, and an expiry sweep reclaiming vanished clients'
	// leases. BSSID carries the binding (AP), Note the pool involved,
	// Value the address (alloc/failover) or the reclaim count (gc).
	KindIPAMAlloc
	KindIPAMFailover
	KindIPAMGC
	// The serve.* kinds are the spider-serve daemon lifecycle, recorded on
	// the daemon's own telemetry recorder — never on a scenario's — so the
	// scenario stream's bit-identical replay contract is untouched. Unlike
	// every other kind, serve.stall's Value carries a wall-clock duration:
	// the telemetry recorder is explicitly outside the determinism
	// contract (see DESIGN §12).
	//
	// KindServeIntent marks one accepted external intent (Value = assigned
	// sequence, Note = intent kind; Note = "rejected:<reason>" when the
	// intent failed to apply).
	KindServeIntent
	// KindServeCheckpoint marks a durable snapshot (Value = intent seq
	// horizon included in the checkpoint).
	KindServeCheckpoint
	// KindServeRestore marks a startup restore (Value = intents replayed).
	KindServeRestore
	// KindServeStall marks a sim step that overran its wall-clock deadline
	// (Value = wall ns the step took).
	KindServeStall
	// KindServeWALTruncated marks recovery discarding a torn WAL tail
	// (Value = bytes truncated).
	KindServeWALTruncated
	// KindAllocAssign marks a fairness-allocator decision for one client:
	// the AP it was assigned and the pacing target applied (BSSID = the
	// assignment, zero MAC = unassigned; Value = pace in bit/s, 0 =
	// unpaced; Note = allocator variant).
	KindAllocAssign
	// KindHealthViolation / KindHealthRecovered bracket an SLO rule's
	// violating windows, emitted on the world log by the telemetry
	// evaluator at window close (Note = "rule signal=… limit=… w=window",
	// Value = the violating signal in milli-units). They derive purely
	// from rollup windows over the deterministic event stream, so they
	// inherit the replay/worker-invariance contract.
	KindHealthViolation
	KindHealthRecovered

	numKinds // sentinel: keep last
)

// NumKinds is the number of defined event kinds (Summary array width).
const NumKinds = int(numKinds)

var kindNames = [numKinds]string{
	"channel-switch", "probe", "auth", "assoc",
	"dhcp-offer", "dhcp-ack", "dhcp-nak", "dhcp-renew",
	"psm-drain", "handoff", "link-up", "link-down",
	"outage-begin", "outage-end", "fault-begin", "fault-end",
	"join-start", "join-complete", "join-fail",
	"ipam.alloc", "ipam.failover", "ipam.gc",
	"serve.intent", "serve.checkpoint", "serve.restore", "serve.stall",
	"serve.wal-truncated",
	"alloc.assign",
	"health.violation", "health.recovered",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its stable string name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind name; unknown names are an error, which is
// what makes the exported JSONL schema-checkable.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one timeline entry. At is simulation time; no wall-clock value
// ever enters an Event, so exported artifacts are reproducible.
type Event struct {
	// At is the simulation time of the event in nanoseconds.
	At sim.Time `json:"t_ns"`
	// Client is the emitting client's ID; WorldClient for world-scoped
	// events (chaos faults).
	Client int `json:"client"`
	// Seq is the recorder-global sequence number, making (At, Client,
	// Seq) a total order.
	Seq  uint64 `json:"seq"`
	Kind Kind   `json:"kind"`
	// BSSID names the AP involved, when any.
	BSSID string `json:"bssid,omitempty"`
	// Channel is the 802.11 channel involved, when any.
	Channel int `json:"channel,omitempty"`
	// Value carries the kind-specific payload (durations in ns, drained
	// frame counts, resolved AP indices).
	Value int64 `json:"value,omitempty"`
	// Note carries a short kind-specific label (join stage, fault kind).
	Note string `json:"note,omitempty"`
}

// WorldClient is the pseudo client ID world-scoped events record under.
const WorldClient = -1

// Summary counts recorded events by kind. Merging summaries is plain
// addition — commutative and associative — so fold order (and therefore
// fleet worker count and completion order) can never change a total.
type Summary struct {
	Counts [NumKinds]int64
}

// Add folds another summary into s.
func (s *Summary) Add(o Summary) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
}

// Total returns the number of events across all kinds.
func (s Summary) Total() int64 {
	var t int64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// Empty reports whether no events were counted.
func (s Summary) Empty() bool { return s == Summary{} }

// String renders the non-zero counts in kind order.
func (s Summary) String() string {
	var b strings.Builder
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", Kind(i), c)
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}
