// Package chaos is the deterministic fault-injection subsystem. A Plan
// declares typed faults — AP crashes with state loss, DHCP server
// misbehaviour, backhaul blackholes and latency spikes, beacon
// suppression, channel-wide noise bursts — either at fixed times (Event)
// or as seeded stochastic processes with exponential inter-arrivals
// (Process). An Injector executes the plan on the simulation engine, so
// for a given (seed, plan) every fault lands at exactly the same virtual
// time in every run, at any fleet worker count.
//
// The package reaches the network layers through two narrow interfaces
// (Target for an AP's fault surface, NoiseField for the PHY), which
// internal/ap and internal/phy satisfy structurally — chaos stays a leaf
// package with no dependency on the layers it breaks.
package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"spider/internal/dhcp"
	"spider/internal/dot11"
	"spider/internal/sim"
)

// Kind enumerates the injectable fault types.
type Kind uint8

const (
	// APCrash takes an AP off the air with full state loss: stations,
	// ARP-style IP bindings, and DHCP leases all vanish, as on a power
	// cycle. With Event.Duration > 0 the AP reboots that much later.
	APCrash Kind = iota + 1
	// APReboot brings a crashed AP back up (empty state, beaconing).
	APReboot
	// DHCPSilence makes the AP's DHCP server drop every message.
	DHCPSilence
	// DHCPNakStorm makes the server answer everything with NAK.
	DHCPNakStorm
	// DHCPExhaust makes the pool behave exhausted for unbound clients.
	DHCPExhaust
	// BeaconSuppress stops beacon transmission; the AP otherwise works,
	// so cached scan entries still tempt the client into joining.
	BeaconSuppress
	// BackhaulBlackhole drops every packet on the AP's wired link.
	BackhaulBlackhole
	// BackhaulLatency adds Event.Delay to the wired one-way delay.
	BackhaulLatency
	// NoiseBurst raises per-frame loss on Event.Channel by Event.Loss.
	NoiseBurst
)

func (k Kind) String() string {
	switch k {
	case APCrash:
		return "ap-crash"
	case APReboot:
		return "ap-reboot"
	case DHCPSilence:
		return "dhcp-silence"
	case DHCPNakStorm:
		return "dhcp-nak-storm"
	case DHCPExhaust:
		return "dhcp-exhaust"
	case BeaconSuppress:
		return "beacon-suppress"
	case BackhaulBlackhole:
		return "backhaul-blackhole"
	case BackhaulLatency:
		return "backhaul-latency"
	case NoiseBurst:
		return "noise-burst"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Special AP selectors for Event.AP / Process.AP.
const (
	// AllAPs applies the fault to every target at once.
	AllAPs = -1
	// RandomAP draws a uniform target per firing (processes only; an
	// Event with RandomAP draws once, at its scheduled time).
	RandomAP = -2
)

// Event is one scheduled fault.
type Event struct {
	// At is the injection time.
	At sim.Time
	// Kind selects the fault.
	Kind Kind
	// AP indexes the injector's target list (AllAPs / RandomAP allowed).
	AP int
	// Duration bounds transient faults: a crash reboots, and a DHCP /
	// beacon / backhaul / noise fault reverts, Duration after injection.
	// Zero means the fault persists (a crash stays down).
	Duration sim.Time
	// Channel is the affected channel for NoiseBurst.
	Channel dot11.Channel
	// Loss is the extra per-frame loss probability for NoiseBurst.
	Loss float64
	// Delay is the added one-way delay for BackhaulLatency.
	Delay sim.Time
	// Cause names the fault's provenance ("<plan>/event[i]" or
	// "<plan>/proc[i]"); New fills it when empty, so OnFault observers can
	// attribute an outage to the exact plan entry that caused it.
	Cause string
}

// Process is a seeded stochastic fault source: firings arrive with
// exponential inter-arrival times of the given mean, each injecting one
// Event derived from the template fields below.
type Process struct {
	// Kind selects the fault injected per firing.
	Kind Kind
	// Mean is the average inter-arrival time; non-positive disables the
	// process.
	Mean sim.Time
	// Start delays the first arrival window.
	Start sim.Time
	// End stops the process; zero means it runs for the whole scenario.
	End sim.Time
	// Duration, AP, Channel, Loss, Delay fill the injected Event.
	Duration sim.Time
	AP       int
	Channel  dot11.Channel
	Loss     float64
	Delay    sim.Time
	// Cause labels every Event this process injects (see Event.Cause).
	Cause string
}

// Plan is a declarative fault schedule: fixed events plus stochastic
// processes. The zero value injects nothing.
type Plan struct {
	// Name labels the plan in fault-cause metadata; empty plans inject as
	// "plan".
	Name   string
	Events []Event
	Procs  []Process
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Events) == 0 && len(p.Procs) == 0 }

// Hash returns a stable 64-bit FNV-1a digest of the plan's canonical
// encoding. Result caches key on it so a cached run can never mask a
// plan change.
func (p Plan) Hash() string {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(p.Name))
	w(uint64(len(p.Events)))
	for _, e := range p.Events {
		h.Write([]byte(e.Cause))
		w(uint64(e.At))
		w(uint64(e.Kind))
		w(uint64(int64(e.AP)))
		w(uint64(e.Duration))
		w(uint64(e.Channel))
		w(math.Float64bits(e.Loss))
		w(uint64(e.Delay))
	}
	w(uint64(len(p.Procs)))
	for _, pr := range p.Procs {
		h.Write([]byte(pr.Cause))
		w(uint64(pr.Kind))
		w(uint64(pr.Mean))
		w(uint64(pr.Start))
		w(uint64(pr.End))
		w(uint64(pr.Duration))
		w(uint64(int64(pr.AP)))
		w(uint64(pr.Channel))
		w(math.Float64bits(pr.Loss))
		w(uint64(pr.Delay))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Target is the fault surface one AP exposes. *ap.AP satisfies it.
type Target interface {
	Crash()
	Reboot()
	SetBeaconing(on bool)
	SetDHCPFault(mode dhcp.FaultMode)
	SetBackhaulBlackhole(on bool)
	SetBackhaulExtraDelay(extra sim.Time)
}

// NoiseField is the channel-noise surface of the PHY. *phy.Medium
// satisfies it.
type NoiseField interface {
	SetChannelNoise(ch dot11.Channel, extraLoss float64)
}

// Stats counts injections by family, for experiment reporting.
type Stats struct {
	Injected       int // total fault injections (reverts not counted)
	Crashes        int
	Reboots        int // includes scheduled post-crash reboots
	DHCPFaults     int
	BeaconFaults   int
	BackhaulFaults int
	NoiseBursts    int
	Reverted       int // transient faults that expired
}

// Add folds another injector's counters into s. A serve-mode world can
// arm several plans (the up-front WorldConfig plan plus mid-run
// injections) and reports their combined totals per client Result.
func (s *Stats) Add(o Stats) {
	s.Injected += o.Injected
	s.Crashes += o.Crashes
	s.Reboots += o.Reboots
	s.DHCPFaults += o.DHCPFaults
	s.BeaconFaults += o.BeaconFaults
	s.BackhaulFaults += o.BackhaulFaults
	s.NoiseBursts += o.NoiseBursts
	s.Reverted += o.Reverted
}

// Injector executes a Plan against a set of targets. All scheduling and
// random draws happen on the supplied engine and RNG stream, so two
// injectors built from the same (seed, plan) replay identically.
type Injector struct {
	eng   *sim.Engine
	rng   *sim.RNG
	aps   []Target
	noise NoiseField
	stats Stats

	// OnFault, when non-nil, observes every applied fault: begin=true at
	// injection, begin=false when a transient fault reverts. aps holds
	// the resolved target indices (RandomAP is resolved by then). Set it
	// before the engine runs; the callback must not mutate the plan.
	OnFault func(e Event, aps []int, begin bool)
}

// New builds the injector and schedules the whole plan. rng must be a
// dedicated stream; noise may be nil when the plan has no NoiseBurst.
// Every scheduled fault carries cause metadata: explicit Cause fields pass
// through, empty ones default to "<plan>/event[i]" / "<plan>/proc[i]".
func New(eng *sim.Engine, rng *sim.RNG, plan Plan, aps []Target, noise NoiseField) *Injector {
	inj := &Injector{eng: eng, rng: rng, aps: aps, noise: noise}
	name := plan.Name
	if name == "" {
		name = "plan"
	}
	for i, e := range plan.Events {
		e := e
		if e.Cause == "" {
			e.Cause = fmt.Sprintf("%s/event[%d]", name, i)
		}
		eng.ScheduleAt(e.At, func() { inj.apply(e) })
	}
	for i, pr := range plan.Procs {
		if pr.Cause == "" {
			pr.Cause = fmt.Sprintf("%s/proc[%d]", name, i)
		}
		inj.startProcess(pr)
	}
	return inj
}

// Stats returns a snapshot of the injection counters.
func (inj *Injector) Stats() Stats { return inj.stats }

// startProcess arms the first arrival; each firing re-arms the next, so
// inter-arrival draws interleave with other processes strictly in
// event-time order — deterministic for a fixed seed.
func (inj *Injector) startProcess(pr Process) {
	if pr.Mean <= 0 {
		return
	}
	var arm func(at sim.Time)
	arm = func(at sim.Time) {
		if pr.End > 0 && at > pr.End {
			return
		}
		inj.eng.ScheduleAt(at, func() {
			inj.apply(Event{
				At: at, Kind: pr.Kind, AP: pr.AP,
				Duration: pr.Duration, Channel: pr.Channel,
				Loss: pr.Loss, Delay: pr.Delay, Cause: pr.Cause,
			})
			arm(sim.Later(inj.eng.Now(), inj.rng.ExpDuration(pr.Mean)))
		})
	}
	arm(sim.Later(pr.Start, inj.rng.ExpDuration(pr.Mean)))
}

// targets resolves an Event.AP selector to concrete targets and their
// indices in the target list. RandomAP draws here, at injection time.
func (inj *Injector) targets(sel int) ([]Target, []int) {
	switch {
	case len(inj.aps) == 0:
		return nil, nil
	case sel == AllAPs:
		idxs := make([]int, len(inj.aps))
		for i := range idxs {
			idxs[i] = i
		}
		return inj.aps, idxs
	case sel == RandomAP:
		i := inj.rng.Intn(len(inj.aps))
		return inj.aps[i:][:1], []int{i}
	case sel >= 0 && sel < len(inj.aps):
		return inj.aps[sel:][:1], []int{sel}
	}
	return nil, nil
}

// apply injects one fault and, for transient kinds with a Duration,
// schedules the revert. Overlapping windows on the same knob are
// last-writer-wins; plans wanting precise overlap semantics should use
// disjoint windows.
func (inj *Injector) apply(e Event) {
	ts, idxs := inj.targets(e.AP)
	// Validate before counting or observing, so Stats.Injected and the
	// fault timeline only ever report faults that actually landed.
	switch e.Kind {
	case APCrash, APReboot, DHCPSilence, DHCPNakStorm, DHCPExhaust,
		BeaconSuppress, BackhaulBlackhole, BackhaulLatency:
		if len(ts) == 0 {
			return
		}
	case NoiseBurst:
		if inj.noise == nil {
			return
		}
	default:
		return
	}
	inj.stats.Injected++
	if inj.OnFault != nil {
		inj.OnFault(e, idxs, true)
	}
	revert := func(fn func()) {
		if e.Duration <= 0 {
			return
		}
		inj.eng.Schedule(e.Duration, func() {
			inj.stats.Reverted++
			fn()
			if inj.OnFault != nil {
				inj.OnFault(e, idxs, false)
			}
		})
	}
	switch e.Kind {
	case APCrash:
		inj.stats.Crashes++
		for _, t := range ts {
			t.Crash()
		}
		revert(func() {
			inj.stats.Reboots++
			for _, t := range ts {
				t.Reboot()
			}
		})
	case APReboot:
		inj.stats.Reboots++
		for _, t := range ts {
			t.Reboot()
		}
	case DHCPSilence, DHCPNakStorm, DHCPExhaust:
		inj.stats.DHCPFaults++
		mode := dhcp.FaultSilent
		switch e.Kind {
		case DHCPNakStorm:
			mode = dhcp.FaultNak
		case DHCPExhaust:
			mode = dhcp.FaultExhausted
		}
		for _, t := range ts {
			t.SetDHCPFault(mode)
		}
		revert(func() {
			for _, t := range ts {
				t.SetDHCPFault(dhcp.FaultNone)
			}
		})
	case BeaconSuppress:
		inj.stats.BeaconFaults++
		for _, t := range ts {
			t.SetBeaconing(false)
		}
		revert(func() {
			for _, t := range ts {
				t.SetBeaconing(true)
			}
		})
	case BackhaulBlackhole:
		inj.stats.BackhaulFaults++
		for _, t := range ts {
			t.SetBackhaulBlackhole(true)
		}
		revert(func() {
			for _, t := range ts {
				t.SetBackhaulBlackhole(false)
			}
		})
	case BackhaulLatency:
		inj.stats.BackhaulFaults++
		for _, t := range ts {
			t.SetBackhaulExtraDelay(e.Delay)
		}
		revert(func() {
			for _, t := range ts {
				t.SetBackhaulExtraDelay(0)
			}
		})
	case NoiseBurst:
		inj.stats.NoiseBursts++
		ch := e.Channel
		inj.noise.SetChannelNoise(ch, e.Loss)
		revert(func() { inj.noise.SetChannelNoise(ch, 0) })
	}
}
