package lmm

import (
	"testing"
	"time"

	"spider/internal/alloc"
	"spider/internal/dhcp"
	"spider/internal/dot11"
	"spider/internal/driver"
	"spider/internal/sim"
)

// The reselect ticker sleeps after a pass that starts nothing and must
// wake in time for the first tick at which an ungated pass would start a
// join. These tests drive each wake path into a quiet rig (no beacons
// arriving, so no scan write wakes the ticker by accident) and pin both the
// gate's state and the tick the join starts on.

// firstTickAtOrAfter returns the first reselect tick at or after t; ticks
// fall on multiples of ReselectInterval from the module's start at 0.
func (r *rig) firstTickAtOrAfter(t sim.Time) sim.Time {
	iv := r.m.cfg.ReselectInterval
	return (t + iv - 1) / iv * iv
}

// wakeAfterNextTick runs 1ns past the next reselect tick and returns the
// gate's wake time as that tick's pass left it.
func (r *rig) wakeAfterNextTick() sim.Time {
	iv := r.m.cfg.ReselectInterval
	r.eng.Run((r.eng.Now()/iv+1)*iv + 1)
	return r.m.sel.WakeAt()
}

// lastJoinStart returns when the most recent recorded join attempt began.
func (r *rig) lastJoinStart(t *testing.T) sim.Time {
	t.Helper()
	joins := r.m.Joins()
	if len(joins) == 0 {
		t.Fatal("no join recorded")
	}
	return joins[len(joins)-1].Start
}

func TestReselectSleepsOnEmptyScanTableAndWakesOnScanWrite(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched()})
	r.run(time.Second)
	if w := r.wakeAfterNextTick(); w != sim.Infinity {
		t.Fatalf("wake after a pass over an empty scan table = %v, want Infinity", w)
	}
	firstWrite := sim.Time(-1)
	wake := r.drv.OnScanUpdate
	r.drv.OnScanUpdate = func() {
		wake()
		if firstWrite < 0 {
			firstWrite = r.eng.Now()
			if w := r.m.sel.WakeAt(); w != 0 {
				t.Errorf("scan write left the ticker asleep until %v", w)
			}
		}
	}
	r.addAP(dot11.Channel1, 1, true)
	r.run(5 * time.Second)
	if firstWrite < 0 || len(r.ups) != 1 {
		t.Fatalf("first scan write at %v, %d links up", firstWrite, len(r.ups))
	}
	if got, want := r.lastJoinStart(t), r.firstTickAtOrAfter(firstWrite); got != want {
		t.Fatalf("join started at %v, want the first tick after the scan write (%v)", got, want)
	}
}

// TestReselectWakesOnConnResetAndBackoffExpiry kills a live link under a
// SingleAP module: with the cap reached the ticker sleeps indefinitely;
// the liveness teardown's conn reset wakes it; the next pass finds the AP
// embargoed and sleeps exactly until the embargo ends; the retry starts on
// the first tick at or after that.
func TestReselectWakesOnConnResetAndBackoffExpiry(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), SingleAP: true, PingFailLimit: 5, FailureBackoff: time.Second})
	a := r.addAP(dot11.Channel1, 1, true)
	r.run(5 * time.Second)
	if len(r.ups) != 1 {
		t.Fatal("initial join failed")
	}
	if w := r.wakeAfterNextTick(); w != sim.Infinity {
		t.Fatalf("wake with the SingleAP cap reached = %v, want Infinity", w)
	}
	r.m.OnLinkDown = func(*Link) {
		if w := r.m.sel.WakeAt(); w != 0 {
			t.Errorf("conn reset left the ticker asleep until %v", w)
		}
	}
	a.Close() // no more beacons: only the reset and the embargo wake the ticker
	for r.m.Stats().LinksDropped == 0 {
		r.run(10 * time.Millisecond)
	}
	until := r.m.backoffUntil[a.BSSID()]
	if w := r.wakeAfterNextTick(); w != until {
		t.Fatalf("wake with the only AP embargoed = %v, want the embargo end %v", w, until)
	}
	r.run(5 * time.Second) // the retry times out against the closed AP
	if got, want := r.lastJoinStart(t), r.firstTickAtOrAfter(until); got != want {
		t.Fatalf("retry started at %v, want the first tick at or after the embargo end (%v)", got, want)
	}
}

func TestReselectWakesAtJoinFailureBackoffExpiry(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), FailureBackoff: 2 * time.Second,
		DHCP: dhcp.ClientConfig{RetryTimeout: 300 * time.Millisecond, AcquireWindow: time.Second}})
	a := r.addAP(dot11.Channel1, 1, true)
	a.SetDHCPFault(dhcp.FaultSilent)
	r.m.OnJoin = func(JoinRecord) { a.SetBeaconing(false) }
	for r.m.Stats().DHCPFailures == 0 {
		r.run(10 * time.Millisecond)
	}
	until := r.m.backoffUntil[a.BSSID()]
	if w := r.wakeAfterNextTick(); w != until {
		t.Fatalf("wake with the only AP embargoed = %v, want %v", w, until)
	}
	r.run(4 * time.Second)
	if started := r.m.Stats().JoinsStarted; started != 2 {
		t.Fatalf("joins started = %d, want the retry after the embargo", started)
	}
	if got, want := r.lastJoinStart(t), r.firstTickAtOrAfter(until); got != want {
		t.Fatalf("retry started at %v, want %v", got, want)
	}
}

// TestReselectSleepsThroughGlobalBackoff shortens the failed AP's own
// embargo so only the stock-dhclient global backoff holds the retry.
func TestReselectSleepsThroughGlobalBackoff(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), FailureBackoff: 3 * time.Second, GlobalDHCPBackoff: true,
		DHCP: dhcp.ClientConfig{RetryTimeout: 300 * time.Millisecond, AcquireWindow: time.Second}})
	a := r.addAP(dot11.Channel1, 1, true)
	a.SetDHCPFault(dhcp.FaultSilent)
	failedAt := sim.Time(-1)
	r.m.OnJoin = func(JoinRecord) {
		if failedAt < 0 {
			failedAt = r.eng.Now()
			a.SetBeaconing(false)
		}
	}
	for failedAt < 0 {
		r.run(10 * time.Millisecond)
	}
	r.m.backoffUntil[a.BSSID()] = failedAt + time.Second
	global := failedAt + r.m.cfg.FailureBackoff
	if w := r.wakeAfterNextTick(); w != global {
		t.Fatalf("wake during the global backoff = %v, want %v", w, global)
	}
	r.run(6 * time.Second) // the retry's outcome is recorded once its DHCP window closes
	if got, want := r.lastJoinStart(t), r.firstTickAtOrAfter(global); got != want {
		t.Fatalf("retry started at %v, want the first tick after the global backoff (%v)", got, want)
	}
}

// TestReselectWakesOnSetSchedule parks the radio on channel 1 behind the
// module's back, so the scan table holds a channel-1 AP the channel-6
// module filters out; scheduling channel 1 must wake the ticker with no
// scan write to help.
func TestReselectWakesOnSetSchedule(t *testing.T) {
	r := newRig(t, Config{Schedule: []driver.Slot{{Channel: dot11.Channel6}}})
	a := r.addAP(dot11.Channel1, 1, true)
	r.drv.SetSchedule(ch1Sched())
	r.run(time.Second)
	a.SetBeaconing(false)
	if w := r.wakeAfterNextTick(); w != sim.Infinity {
		t.Fatalf("wake with only an off-schedule AP = %v, want Infinity", w)
	}
	at := r.eng.Now()
	r.m.SetSchedule(ch1Sched())
	if w := r.m.sel.WakeAt(); w != 0 {
		t.Fatalf("SetSchedule left the ticker asleep until %v", w)
	}
	r.run(3 * time.Second)
	if st := r.m.Stats(); st.JoinsStarted != 1 {
		t.Fatalf("joins started = %d, want 1", st.JoinsStarted)
	}
	if got, want := r.lastJoinStart(t), r.firstTickAtOrAfter(at); got != want {
		t.Fatalf("join started at %v, want the first tick after SetSchedule (%v)", got, want)
	}
}

// TestReselectWakesOnSetAllocTarget pins the module and checks that a
// pinned module polls every tick (steering reads the scan table each
// pass), and that clearing the pin lets it sleep again.
func TestReselectWakesOnSetAllocTarget(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched()})
	r.run(time.Second)
	if w := r.wakeAfterNextTick(); w != sim.Infinity {
		t.Fatalf("wake over an empty scan table = %v, want Infinity", w)
	}
	r.m.SetAllocTarget(dot11.MAC(1001))
	if w := r.m.sel.WakeAt(); w != 0 {
		t.Fatalf("SetAllocTarget left the ticker asleep until %v", w)
	}
	for i := 0; i < 3; i++ {
		if w := r.wakeAfterNextTick(); w != 0 {
			t.Fatalf("pinned module slept until %v", w)
		}
	}
	r.m.SetAllocTarget(dot11.MACAddr{})
	if w := r.m.sel.WakeAt(); w != 0 {
		t.Fatalf("clearing the pin left the ticker asleep until %v", w)
	}
	if w := r.wakeAfterNextTick(); w != sim.Infinity {
		t.Fatalf("unpinned module over an empty scan table woke at %v, want Infinity", w)
	}
}

// TestPinnedTakenTargetSleepsThroughBeacons: once the pinned target is
// joined, no scan write can change a pass, so the beacons the module keeps
// hearing from both APs leave the ticker asleep.
func TestPinnedTakenTargetSleepsThroughBeacons(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched()})
	a := r.addAP(dot11.Channel1, 1, true)
	r.addAP(dot11.Channel1, 2, true)
	r.m.SetAllocTarget(a.BSSID())
	r.run(5 * time.Second)
	if len(r.ups) != 1 || r.ups[0].BSSID != a.BSSID() {
		t.Fatalf("%d links up, want one to the pinned AP", len(r.ups))
	}
	if w := r.wakeAfterNextTick(); w != sim.Infinity {
		t.Fatalf("wake with the pinned target joined = %v, want Infinity", w)
	}
	writes := 0
	var woken []sim.Time
	scanned := r.drv.OnScanUpdate
	r.drv.OnScanUpdate = func() {
		scanned()
		writes++
		if r.m.sel.WakeAt() != sim.Infinity {
			woken = append(woken, r.eng.Now())
		}
	}
	r.run(2 * time.Second)
	if writes == 0 {
		t.Fatal("no beacon reached the scan table")
	}
	if len(woken) > 0 {
		t.Fatalf("%d of %d scan writes woke the pinned module, the first at %v", len(woken), writes, woken[0])
	}
}

// TestReselectNeverSleepsUnderAllocPolicy: the policy observes channel
// load on every pass, so no pass is a no-op.
func TestReselectNeverSleepsUnderAllocPolicy(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), Alloc: alloc.NewPolicy(0)})
	for i := 0; i < 5; i++ {
		if w := r.wakeAfterNextTick(); w != 0 {
			t.Fatalf("module with an alloc policy slept until %v", w)
		}
	}
}

// TestReselectSleepsWhilePinnedTargetTaken pins the module to an AP and
// lets it join: with the target taken, no pass can act, so the ticker
// sleeps indefinitely. Moving the pin to another visible AP wakes it, and
// that tick's pass steers off the old target and joins the new one, after
// which the module sleeps again. With every beacon silenced, losing the
// new target's link wakes the ticker through the conn reset, and while the
// target is free but embargoed each pass polls: the rejoin starts on the
// first tick at or after the embargo ends, with no scan write to help.
func TestReselectSleepsWhilePinnedTargetTaken(t *testing.T) {
	r := newRig(t, Config{Schedule: ch1Sched(), PingFailLimit: 5, FailureBackoff: time.Second})
	a := r.addAP(dot11.Channel1, 1, true)
	b := r.addAP(dot11.Channel1, 2, true)
	r.m.SetAllocTarget(a.BSSID())
	r.run(5 * time.Second)
	if len(r.ups) != 1 || r.ups[0].BSSID != a.BSSID() {
		t.Fatalf("%d links up, want one to the pinned AP", len(r.ups))
	}
	if w := r.wakeAfterNextTick(); w != sim.Infinity {
		t.Fatalf("wake with the pinned target joined = %v, want Infinity", w)
	}

	at := r.eng.Now()
	r.m.SetAllocTarget(b.BSSID())
	if w := r.m.sel.WakeAt(); w != 0 {
		t.Fatalf("SetAllocTarget left the ticker asleep until %v", w)
	}
	r.run(5 * time.Second)
	if len(r.downs) != 1 || r.downs[0].DownCause != "alloc-steer" {
		t.Fatalf("downs = %d, want the old target's link steered down", len(r.downs))
	}
	if got, want := r.lastJoinStart(t), r.firstTickAtOrAfter(at); got != want || len(r.ups) != 2 || r.ups[1].BSSID != b.BSSID() {
		t.Fatalf("join to the new target started at %v (%d links up), want %v", got, len(r.ups), want)
	}
	if w := r.wakeAfterNextTick(); w != sim.Infinity {
		t.Fatalf("wake with the new target joined = %v, want Infinity", w)
	}

	a.SetBeaconing(false)
	b.SetBeaconing(false)
	r.m.OnLinkDown = func(*Link) {
		if w := r.m.sel.WakeAt(); w != 0 {
			t.Errorf("the target's conn reset left the ticker asleep until %v", w)
		}
	}
	b.Crash()
	for r.m.Stats().LinksDropped == 0 {
		r.run(10 * time.Millisecond)
	}
	b.Reboot() // up again but silent: its scan entry is still fresh
	until := r.m.backoffUntil[b.BSSID()]
	if w := r.wakeAfterNextTick(); w != 0 {
		t.Fatalf("pinned module with its target free slept until %v", w)
	}
	r.run(3 * time.Second)
	if got, want := r.lastJoinStart(t), r.firstTickAtOrAfter(until); got != want || len(r.ups) != 3 {
		t.Fatalf("rejoin started at %v (%d links up), want the first tick at or after the embargo end (%v)",
			got, len(r.ups), want)
	}
}
