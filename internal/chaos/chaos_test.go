package chaos

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"spider/internal/dhcp"
	"spider/internal/dot11"
	"spider/internal/sim"
)

// fakeTarget records every fault call with its injection time.
type fakeTarget struct {
	eng *sim.Engine
	id  int
	log []string
}

func (f *fakeTarget) note(format string, args ...any) {
	f.log = append(f.log, fmt.Sprintf("%v ap%d %s", f.eng.Now(), f.id, fmt.Sprintf(format, args...)))
}

func (f *fakeTarget) Crash()                           { f.note("crash") }
func (f *fakeTarget) Reboot()                          { f.note("reboot") }
func (f *fakeTarget) SetBeaconing(on bool)             { f.note("beacon=%v", on) }
func (f *fakeTarget) SetDHCPFault(mode dhcp.FaultMode) { f.note("dhcp=%v", mode) }
func (f *fakeTarget) SetBackhaulBlackhole(on bool)     { f.note("blackhole=%v", on) }
func (f *fakeTarget) SetBackhaulExtraDelay(d sim.Time) { f.note("delay=%v", d) }

// fakeNoise records SetChannelNoise calls.
type fakeNoise struct {
	eng *sim.Engine
	log []string
}

func (f *fakeNoise) SetChannelNoise(ch dot11.Channel, loss float64) {
	f.log = append(f.log, fmt.Sprintf("%v noise ch%d=%g", f.eng.Now(), ch, loss))
}

func rig(n int) (*sim.Engine, []*fakeTarget, []Target) {
	eng := sim.NewEngine()
	fakes := make([]*fakeTarget, n)
	targets := make([]Target, n)
	for i := range fakes {
		fakes[i] = &fakeTarget{eng: eng, id: i}
		targets[i] = fakes[i]
	}
	return eng, fakes, targets
}

func TestEventsFireAtScheduledTimes(t *testing.T) {
	eng, fakes, targets := rig(2)
	plan := Plan{Events: []Event{
		{At: 1 * sim.Time(time.Second), Kind: APCrash, AP: 0, Duration: 2 * sim.Time(time.Second)},
		{At: 2 * sim.Time(time.Second), Kind: DHCPNakStorm, AP: 1},
		{At: 4 * sim.Time(time.Second), Kind: BackhaulLatency, AP: AllAPs, Delay: sim.Time(50 * time.Millisecond)},
	}}
	inj := New(eng, sim.NewRNG(1).Stream("chaos"), plan, targets, nil)
	eng.Run(10 * sim.Time(time.Second))

	want0 := []string{
		"1s ap0 crash",
		"3s ap0 reboot", // Duration-scheduled revert
		"4s ap0 delay=50ms",
	}
	if !reflect.DeepEqual(fakes[0].log, want0) {
		t.Errorf("ap0 log = %v, want %v", fakes[0].log, want0)
	}
	want1 := []string{
		"2s ap1 dhcp=nak",
		"4s ap1 delay=50ms",
	}
	if !reflect.DeepEqual(fakes[1].log, want1) {
		t.Errorf("ap1 log = %v, want %v", fakes[1].log, want1)
	}
	st := inj.Stats()
	if st.Injected != 3 || st.Crashes != 1 || st.Reboots != 1 || st.DHCPFaults != 1 ||
		st.BackhaulFaults != 1 || st.Reverted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTransientFaultsRevert(t *testing.T) {
	eng, fakes, targets := rig(1)
	sec := sim.Time(time.Second)
	plan := Plan{Events: []Event{
		{At: 1 * sec, Kind: DHCPSilence, AP: 0, Duration: 2 * sec},
		{At: 5 * sec, Kind: BeaconSuppress, AP: 0, Duration: 1 * sec},
		{At: 8 * sec, Kind: BackhaulBlackhole, AP: 0, Duration: 3 * sec},
	}}
	inj := New(eng, sim.NewRNG(1).Stream("chaos"), plan, targets, nil)
	eng.Run(20 * sec)

	want := []string{
		"1s ap0 dhcp=silent",
		"3s ap0 dhcp=none",
		"5s ap0 beacon=false",
		"6s ap0 beacon=true",
		"8s ap0 blackhole=true",
		"11s ap0 blackhole=false",
	}
	if !reflect.DeepEqual(fakes[0].log, want) {
		t.Errorf("log = %v, want %v", fakes[0].log, want)
	}
	if st := inj.Stats(); st.Reverted != 3 {
		t.Errorf("Reverted = %d, want 3", st.Reverted)
	}
}

func TestNoiseBurst(t *testing.T) {
	eng, _, targets := rig(1)
	noise := &fakeNoise{eng: eng}
	sec := sim.Time(time.Second)
	plan := Plan{Events: []Event{
		{At: 2 * sec, Kind: NoiseBurst, Channel: dot11.Channel6, Loss: 0.4, Duration: 3 * sec},
	}}
	inj := New(eng, sim.NewRNG(1).Stream("chaos"), plan, targets, noise)
	eng.Run(10 * sec)

	want := []string{"2s noise ch6=0.4", "5s noise ch6=0"}
	if !reflect.DeepEqual(noise.log, want) {
		t.Errorf("noise log = %v, want %v", noise.log, want)
	}
	if st := inj.Stats(); st.NoiseBursts != 1 || st.Injected != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNoiseBurstWithoutFieldIsSkipped(t *testing.T) {
	eng, _, targets := rig(1)
	plan := Plan{Events: []Event{{At: 1, Kind: NoiseBurst, Channel: dot11.Channel1, Loss: 0.5}}}
	inj := New(eng, sim.NewRNG(1).Stream("chaos"), plan, targets, nil)
	eng.Run(sim.Time(time.Second))
	if st := inj.Stats(); st.Injected != 0 || st.NoiseBursts != 0 {
		t.Errorf("stats = %+v, want all zero", st)
	}
}

func TestProcessDeterminism(t *testing.T) {
	sec := sim.Time(time.Second)
	plan := Plan{Procs: []Process{
		{Kind: APCrash, Mean: 5 * sec, Duration: 2 * sec, AP: RandomAP},
		{Kind: DHCPSilence, Mean: 7 * sec, Duration: 3 * sec, AP: RandomAP},
		{Kind: NoiseBurst, Mean: 9 * sec, Duration: 1 * sec, Channel: dot11.Channel1, Loss: 0.3},
	}}
	run := func() ([]string, Stats) {
		eng, fakes, targets := rig(3)
		noise := &fakeNoise{eng: eng}
		inj := New(eng, sim.NewRNG(42).Stream("chaos"), plan, targets, noise)
		eng.Run(120 * sec)
		var log []string
		for _, f := range fakes {
			log = append(log, f.log...)
		}
		log = append(log, noise.log...)
		return log, inj.Stats()
	}
	log1, st1 := run()
	log2, st2 := run()
	if !reflect.DeepEqual(log1, log2) {
		t.Fatalf("same (seed, plan) produced different firing sequences:\n%v\nvs\n%v", log1, log2)
	}
	if st1 != st2 {
		t.Fatalf("stats diverged: %+v vs %+v", st1, st2)
	}
	if st1.Injected == 0 {
		t.Fatal("process plan injected nothing in 120s")
	}
	// A different seed must change the schedule (vanishingly unlikely to
	// collide over a 120s horizon with three processes).
	eng, fakes, targets := rig(3)
	noise := &fakeNoise{eng: eng}
	New(eng, sim.NewRNG(43).Stream("chaos"), plan, targets, noise)
	eng.Run(120 * sec)
	var log3 []string
	for _, f := range fakes {
		log3 = append(log3, f.log...)
	}
	log3 = append(log3, noise.log...)
	if reflect.DeepEqual(log1, log3) {
		t.Fatal("different seeds produced identical firing sequences")
	}
}

func TestProcessWindow(t *testing.T) {
	sec := sim.Time(time.Second)
	eng, fakes, targets := rig(1)
	plan := Plan{Procs: []Process{
		{Kind: BeaconSuppress, Mean: 1 * sec, Start: 10 * sec, End: 20 * sec, AP: 0},
	}}
	New(eng, sim.NewRNG(7).Stream("chaos"), plan, targets, nil)
	eng.Run(60 * sec)
	if len(fakes[0].log) == 0 {
		t.Fatal("windowed process never fired")
	}
	for _, line := range fakes[0].log {
		var stamp string
		if _, err := fmt.Sscanf(line, "%s", &stamp); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		at, err := time.ParseDuration(stamp)
		if err != nil {
			t.Fatalf("unparseable timestamp in %q: %v", line, err)
		}
		if sim.Time(at) < 10*sec || sim.Time(at) > 20*sec {
			t.Errorf("firing %q outside [10s, 20s] window", line)
		}
	}
}

func TestDisabledProcessNeverFires(t *testing.T) {
	eng, fakes, targets := rig(1)
	plan := Plan{Procs: []Process{{Kind: APCrash, Mean: 0, AP: 0}}}
	New(eng, sim.NewRNG(1).Stream("chaos"), plan, targets, nil)
	eng.Run(60 * sim.Time(time.Second))
	if len(fakes[0].log) != 0 {
		t.Errorf("disabled process fired: %v", fakes[0].log)
	}
}

// TestProcessWithEndlessMeanNeverFires: an arrival drawn past the last
// Time, or landing past it after the start, saturates at sim.Infinity
// instead of wrapping negative and firing at once.
func TestProcessWithEndlessMeanNeverFires(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		eng, fakes, targets := rig(1)
		plan := Plan{Procs: []Process{{Kind: APCrash, Mean: sim.Infinity, Start: 10 * sim.Time(time.Second), AP: 0}}}
		inj := New(eng, sim.NewRNG(seed).Stream("chaos"), plan, targets, nil)
		eng.Run(60 * sim.Time(time.Second))
		if n := inj.Stats().Injected; n != 0 || len(fakes[0].log) != 0 {
			t.Fatalf("seed %d: %d injections in 60s: %v", seed, n, fakes[0].log)
		}
	}
}

// TestEndlessDurationNeverReverts: a fault whose Duration would carry its
// revert past the last Time stays in force.
func TestEndlessDurationNeverReverts(t *testing.T) {
	eng, fakes, targets := rig(1)
	plan := Plan{Events: []Event{{At: sim.Time(time.Second), Kind: APCrash, AP: 0, Duration: sim.Infinity}}}
	inj := New(eng, sim.NewRNG(1).Stream("chaos"), plan, targets, nil)
	eng.Run(60 * sim.Time(time.Second))
	if want := []string{"1s ap0 crash"}; !reflect.DeepEqual(fakes[0].log, want) || inj.Stats().Reverted != 0 {
		t.Fatalf("log = %v (reverted %d), want %v", fakes[0].log, inj.Stats().Reverted, want)
	}
}

func TestAllAPsSelector(t *testing.T) {
	eng, fakes, targets := rig(3)
	plan := Plan{Events: []Event{{At: 1, Kind: APCrash, AP: AllAPs}}}
	New(eng, sim.NewRNG(1).Stream("chaos"), plan, targets, nil)
	eng.Run(sim.Time(time.Second))
	for i, f := range fakes {
		if len(f.log) != 1 {
			t.Errorf("ap%d log = %v, want exactly one crash", i, f.log)
		}
	}
}

func TestOutOfRangeSelectorIsIgnored(t *testing.T) {
	eng, fakes, targets := rig(1)
	plan := Plan{Events: []Event{{At: 1, Kind: APCrash, AP: 5}}}
	inj := New(eng, sim.NewRNG(1).Stream("chaos"), plan, targets, nil)
	eng.Run(sim.Time(time.Second))
	if len(fakes[0].log) != 0 || inj.Stats().Injected != 0 {
		t.Errorf("out-of-range selector applied: log=%v stats=%+v", fakes[0].log, inj.Stats())
	}
}

func TestPlanHash(t *testing.T) {
	sec := sim.Time(time.Second)
	base := Plan{
		Events: []Event{{At: 1 * sec, Kind: APCrash, AP: 0, Duration: 2 * sec}},
		Procs:  []Process{{Kind: DHCPSilence, Mean: 5 * sec, AP: RandomAP}},
	}
	if got, want := base.Hash(), base.Hash(); got != want {
		t.Fatalf("hash not stable: %s vs %s", got, want)
	}
	mutations := []Plan{
		{},
		{Events: base.Events},
		{Procs: base.Procs},
		{Events: []Event{{At: 2 * sec, Kind: APCrash, AP: 0, Duration: 2 * sec}}, Procs: base.Procs},
		{Events: []Event{{At: 1 * sec, Kind: APReboot, AP: 0, Duration: 2 * sec}}, Procs: base.Procs},
		{Events: []Event{{At: 1 * sec, Kind: APCrash, AP: 1, Duration: 2 * sec}}, Procs: base.Procs},
		{Events: base.Events, Procs: []Process{{Kind: DHCPSilence, Mean: 6 * sec, AP: RandomAP}}},
		{Events: base.Events, Procs: []Process{{Kind: DHCPSilence, Mean: 5 * sec, AP: RandomAP, Loss: 0.1}}},
	}
	seen := map[string]int{base.Hash(): -1}
	for i, m := range mutations {
		h := m.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutation %d collides with %d (hash %s)", i, prev, h)
		}
		seen[h] = i
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{APCrash, APReboot, DHCPSilence, DHCPNakStorm, DHCPExhaust,
		BeaconSuppress, BackhaulBlackhole, BackhaulLatency, NoiseBurst}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has empty or duplicate string %q", k, s)
		}
		seen[s] = true
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestEmpty(t *testing.T) {
	if !(Plan{}).Empty() {
		t.Error("zero plan not Empty")
	}
	if (Plan{Events: []Event{{}}}).Empty() {
		t.Error("plan with event reported Empty")
	}
	if (Plan{Procs: []Process{{}}}).Empty() {
		t.Error("plan with process reported Empty")
	}
}

func TestFaultCauseMetadata(t *testing.T) {
	eng, _, targets := rig(1)
	sec := sim.Time(time.Second)
	plan := Plan{
		Name: "nightly",
		Events: []Event{
			{At: 1 * sec, Kind: DHCPSilence, AP: 0, Duration: 1 * sec},
			{At: 3 * sec, Kind: APCrash, AP: 0, Cause: "custom-cause"},
		},
		Procs: []Process{{Kind: BeaconSuppress, Mean: 4 * sec, AP: 0, Duration: sec / 2}},
	}
	inj := New(eng, sim.NewRNG(1).Stream("chaos"), plan, targets, nil)
	var got []string
	inj.OnFault = func(e Event, _ []int, begin bool) {
		got = append(got, fmt.Sprintf("%s begin=%v", e.Cause, begin))
	}
	eng.Run(20 * sec)

	causes := map[string]int{}
	for _, g := range got {
		causes[g]++
	}
	if causes["nightly/event[0] begin=true"] != 1 || causes["nightly/event[0] begin=false"] != 1 {
		t.Errorf("event[0] cause missing or duplicated: %v", got)
	}
	if causes["custom-cause begin=true"] != 1 {
		t.Errorf("explicit Cause not passed through: %v", got)
	}
	procFired := false
	for c := range causes {
		if len(c) > 0 && c[0] == 'n' && causes[c] > 0 && c != "nightly/event[0] begin=true" &&
			c != "nightly/event[0] begin=false" {
			procFired = true
		}
	}
	if !procFired {
		t.Errorf("process firings carry no cause: %v", got)
	}
}

func TestDefaultPlanNameInCause(t *testing.T) {
	eng, _, targets := rig(1)
	plan := Plan{Events: []Event{{At: 1, Kind: APCrash, AP: 0}}}
	inj := New(eng, sim.NewRNG(1).Stream("chaos"), plan, targets, nil)
	var cause string
	inj.OnFault = func(e Event, _ []int, _ bool) { cause = e.Cause }
	eng.Run(sim.Time(time.Second))
	if cause != "plan/event[0]" {
		t.Errorf("unnamed plan cause = %q, want plan/event[0]", cause)
	}
}
