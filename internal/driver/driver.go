// Package driver implements Spider's virtualized Wi-Fi driver: a single
// physical radio time-sliced across 802.11 *channels* (design choice 1 of
// the paper), exposing multiple virtual interfaces (design choice 3), with
// per-channel transmit queues, PSM-announced switches, and opportunistic
// background scanning.
//
// The driver knows nothing about AP selection policy; the link management
// module (package lmm) drives it. A single-slot schedule degenerates to a
// stock single-channel driver, which is how the baselines are built.
//
// Data frames carry their IP packet as a value (dot11.Frame.Packet): a VIF
// wraps what it sends without serializing it and hands what it receives to
// OnPacket without parsing it, and the per-channel queues hold frames.
package driver

import (
	"fmt"

	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/obs"
	"spider/internal/phy"
	"spider/internal/sim"
)

// Config tunes the driver.
type Config struct {
	// NumVIFs is the number of virtual interfaces (the paper uses 7).
	NumVIFs int
	// LLTimeout is the link-layer retransmission timeout for join
	// handshake messages (default 100 ms, Spider's reduced value; the
	// stock stack's 1 s comes from core.DefaultTimers).
	LLTimeout sim.Time
	// ProbeInterval, when positive, broadcasts probe requests on the
	// active channel at this period (active scanning). Passive beacon
	// collection is always on.
	ProbeInterval sim.Time
	// Events, when non-nil, receives the driver's structured timeline
	// (channel switches, probes, auth/assoc transmissions, PSM drains).
	// Nil disables recording at zero cost.
	Events *obs.ClientLog
}

// withDefaults fills Spider's deployed settings into zero fields: seven
// virtual interfaces and a 100 ms link-layer timeout.
func (c Config) withDefaults() Config {
	if c.NumVIFs <= 0 {
		c.NumVIFs = 7
	}
	if c.LLTimeout <= 0 {
		c.LLTimeout = 100 * 1000 * 1000 // 100 ms
	}
	return c
}

const (
	// joinWindow bounds one link-layer join attempt.
	joinWindow sim.Time = 3000 * 1000 * 1000 // 3 s
	// txQueueLimit caps buffered outgoing frames per channel.
	txQueueLimit = 100
	// scanEntryTTL ages out scan-table entries not heard from.
	scanEntryTTL sim.Time = 5 * 1000 * 1000 * 1000 // 5 s
)

// numChannels sizes flat channel-indexed tables; index 0 is unused
// (channels are 1..14).
const numChannels = 15

// Slot is one entry in the channel schedule.
type Slot struct {
	Channel  dot11.Channel
	Duration sim.Time
}

// ScanEntry is one AP heard during opportunistic scanning.
type ScanEntry struct {
	BSSID    dot11.MACAddr
	SSID     string
	Channel  dot11.Channel
	RSSI     float64
	Open     bool
	LastSeen sim.Time
}

// Stats aggregates driver counters.
type Stats struct {
	Switches     uint64
	PSMSent      uint64
	PollsSent    uint64
	TxQueued     uint64
	TxQueueDrops uint64
	ProbesSent   uint64
}

// Driver is the virtual Wi-Fi driver.
type Driver struct {
	eng *sim.Engine
	rng *sim.RNG
	cfg Config

	radio *phy.Radio
	vifs  []*VIF

	schedule  []Slot
	slotIdx   int
	slotTimer sim.Timer // the current slot's dwell (multi-slot schedules only)

	// txq is indexed by channel number (1..14, numChannels entries);
	// per-channel backing arrays are retained across drains so steady-state
	// queueing does not allocate.
	txq     [numChannels][]dot11.Frame
	scan    map[dot11.MACAddr]ScanEntry
	scanOut []ScanEntry // scratch for ScanTable, reused across calls

	prober *sim.Ticker
	stats  Stats

	// events is the driver's timeline (nil-receiver no-ops when disabled).
	events *obs.ClientLog
	// evChatty caches events.Retains(), whether the log records chatty
	// kinds (immutable after the log exists), so the per-probe guard
	// reads driver-local state instead of chasing the ClientLog pointer
	// every emission.
	evChatty  bool
	switching bool // a hardware reset is in flight
	// occSpan is the open schedule-occupancy span for the channel the
	// radio currently dwells on; switches close it and arrivals open the
	// next, so the span timeline tiles the run per channel.
	occSpan *obs.ActiveSpan

	// OnScanUpdate, if set, fires after every scan-table write, so a
	// consumer that has found nothing to join in the table knows when to
	// look again.
	OnScanUpdate func()
}

// New creates a driver with its radio attached to medium at the mobile
// position pos, which stops changing at stillFrom (see phy.Medium.NewRadio).
// The radio starts on channel 1 with an empty (single-slot) schedule.
func New(eng *sim.Engine, rng *sim.RNG, medium *phy.Medium, mac dot11.MACAddr, pos func() geo.Point, stillFrom sim.Time, cfg Config) *Driver {
	cfg = cfg.withDefaults()
	d := &Driver{
		eng:  eng,
		rng:  rng,
		cfg:  cfg,
		scan: make(map[dot11.MACAddr]ScanEntry),

		events:   cfg.Events,
		evChatty: cfg.Events.Retains(),
	}
	d.slotTimer.Bind(eng, sim.Func(d.nextSlot))
	d.radio = medium.NewRadio(mac, pos, stillFrom)
	d.radio.SetReceiver(d.onFrame, rxTypes...)
	for i := 0; i < cfg.NumVIFs; i++ {
		v := &VIF{id: int32(i), drv: d}
		v.timer.Bind(eng, (*vifTimeout)(v))
		d.vifs = append(d.vifs, v)
	}
	d.schedule = []Slot{{Channel: d.radio.Channel(), Duration: 0}}
	d.occSpan = d.events.StartSpan(eng.Now(), "occupancy")
	d.occSpan.SetChannel(int(d.radio.Channel()))
	if cfg.ProbeInterval > 0 {
		d.prober = eng.Ticker(cfg.ProbeInterval, d.probe)
	}
	return d
}

// MAC returns the radio's MAC address.
func (d *Driver) MAC() dot11.MACAddr { return d.radio.MAC() }

// Stats returns a snapshot of the driver counters.
func (d *Driver) Stats() Stats { return d.stats }

// TxAirtime returns the radio's cumulative transmit airtime.
func (d *Driver) TxAirtime() sim.Time { return d.radio.TxAirtime() }

// ChannelAirtime returns the cumulative occupancy the radio senses on ch
// (see phy.Medium.ChannelAirtime); decentralized allocation policies
// sample it to estimate per-channel busy fractions.
func (d *Driver) ChannelAirtime(ch dot11.Channel) sim.Time { return d.radio.ChannelAirtime(ch) }

// ChannelContenders returns the instantaneous count of radios with frames
// committed on ch (see phy.Medium.ChannelContenders).
func (d *Driver) ChannelContenders(ch dot11.Channel) int { return d.radio.ChannelContenders(ch) }

// SwitchTime returns the total time spent in hardware resets.
func (d *Driver) SwitchTime() sim.Time {
	return sim.Time(d.stats.Switches) * phy.SwitchLatency
}

// VIFs returns the virtual interfaces.
func (d *Driver) VIFs() []*VIF { return d.vifs }

// CurrentChannel returns the channel the radio is tuned to (the target
// channel while a switch is in flight).
func (d *Driver) CurrentChannel() dot11.Channel { return d.radio.Channel() }

// CheckSchedule reports why SetSchedule would refuse slots: an empty
// schedule, an invalid channel, or a multi-slot schedule with a duration
// that is not positive.
func CheckSchedule(slots []Slot) error {
	if len(slots) == 0 {
		return fmt.Errorf("driver: empty schedule")
	}
	for _, s := range slots {
		if !s.Channel.Valid() {
			return fmt.Errorf("driver: invalid channel %d in schedule", s.Channel)
		}
		if len(slots) > 1 && s.Duration <= 0 {
			return fmt.Errorf("driver: multi-slot schedule needs positive durations")
		}
	}
	return nil
}

// SetSchedule installs a channel schedule. A single slot (any duration)
// parks the radio on that channel with no switching. Multi-slot schedules
// cycle round-robin; each duration is the dwell time on that channel,
// excluding the hardware switch cost. It panics on a schedule
// CheckSchedule refuses.
func (d *Driver) SetSchedule(slots []Slot) {
	if err := CheckSchedule(slots); err != nil {
		panic(err.Error())
	}
	d.schedule = append([]Slot(nil), slots...)
	d.slotIdx = 0
	d.slotTimer.Stop()
	if d.radio.Channel() == slots[0].Channel && !d.radio.Switching() {
		d.enterSlot()
		return
	}
	d.switchTo(slots[0].Channel)
}

// ScanTable returns live scan entries in BSSID order (a stable order, so
// downstream selection never depends on map iteration); callers rank by
// their own criteria as needed. Entries older than scanEntryTTL are
// dropped. The returned slice is a scratch buffer reused by the next
// ScanTable call — consume it before calling again; copy it to retain.
func (d *Driver) ScanTable() []ScanEntry {
	cutoff := d.eng.Now() - scanEntryTTL
	out := d.scanOut[:0]
	for b, e := range d.scan {
		if e.LastSeen < cutoff {
			delete(d.scan, b)
			continue
		}
		out = append(out, e)
	}
	// Insertion sort on BSSID bytes: tables hold a handful of APs, and
	// unlike sort.Slice this allocates neither a closure nor a swapper.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].BSSID.Less(out[j-1].BSSID); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	d.scanOut = out
	return out
}

// probe broadcasts an active probe request on the current channel.
func (d *Driver) probe() {
	if d.switching {
		return
	}
	d.stats.ProbesSent++
	// Probes are the single largest event class on a dense run (tens per
	// client-minute); the cached chatty flag skips them before the event
	// is even built when the log does not record them.
	if d.evChatty {
		d.events.Emit(obs.Event{
			At:      d.eng.Now(),
			Kind:    obs.KindProbe,
			Channel: int(d.radio.Channel()),
		})
	}
	d.radio.Send(dot11.Frame{
		Type:  dot11.TypeProbeReq,
		Addr1: dot11.Broadcast,
		Seq:   d.radio.NextSeq(),
	}, nil)
}

// enterSlot arms the dwell timer for the current slot (multi-slot only).
func (d *Driver) enterSlot() {
	if len(d.schedule) <= 1 {
		return
	}
	d.slotTimer.Reset(d.schedule[d.slotIdx].Duration)
}

func (d *Driver) nextSlot() {
	d.slotIdx = (d.slotIdx + 1) % len(d.schedule)
	next := d.schedule[d.slotIdx].Channel
	if next == d.radio.Channel() && !d.radio.Switching() {
		// Adjacent slots on the same channel: no switch needed.
		d.enterSlot()
		return
	}
	d.switchTo(next)
}

// switchTo performs the full Spider switch sequence: PSM announcements to
// associated APs on the old channel, hardware reset, then PS-Polls on the
// new channel and a flush of its queued frames.
func (d *Driver) switchTo(ch dot11.Channel) {
	old := d.radio.Channel()
	if !d.switching {
		for _, v := range d.vifs {
			if v.state == vifAssociated && v.channel == old {
				d.stats.PSMSent++
				d.radio.Send(dot11.Frame{
					Type:      dot11.TypeNullData,
					Addr1:     v.bssid,
					Addr3:     v.bssid,
					Seq:       d.radio.NextSeq(),
					PowerMgmt: true,
				}, nil)
			}
		}
	}
	d.switching = true
	d.stats.Switches++
	d.occSpan.End(d.eng.Now())
	d.occSpan = nil
	d.events.Emit(obs.Event{
		At:      d.eng.Now(),
		Kind:    obs.KindChannelSwitch,
		Channel: int(ch),
		Value:   int64(old),
	})
	d.radio.SetChannel(ch, func() {
		d.switching = false
		d.arriveOn(ch)
	})
}

// arriveOn completes a switch: wake associated APs and drain the queue.
func (d *Driver) arriveOn(ch dot11.Channel) {
	d.occSpan = d.events.StartSpan(d.eng.Now(), "occupancy")
	d.occSpan.SetChannel(int(ch))
	for _, v := range d.vifs {
		if v.Joining() && v.channel == ch {
			v.onChannelArrive()
		}
	}
	for _, v := range d.vifs {
		if v.state == vifAssociated && v.channel == ch {
			d.stats.PollsSent++
			d.radio.Send(dot11.Frame{
				Type:  dot11.TypePSPoll,
				Addr1: v.bssid,
				Addr3: v.bssid,
				Seq:   d.radio.NextSeq(),
			}, nil)
		}
	}
	// Reset length but keep the backing array: the drain below sends
	// directly (the radio is tuned here, nothing re-queues to ch), so the
	// snapshot is safe to iterate and the array is reused next dwell.
	q := d.txq[ch]
	d.txq[ch] = q[:0]
	if len(q) > 0 {
		d.events.Emit(obs.Event{
			At:      d.eng.Now(),
			Kind:    obs.KindPSMDrain,
			Channel: int(ch),
			Value:   int64(len(q)),
		})
	}
	for _, f := range q {
		d.radio.Send(f, nil)
	}
	d.enterSlot()
}

// sendOrQueue transmits on the frame's channel immediately when tuned
// there, otherwise buffers it in that channel's queue.
func (d *Driver) sendOrQueue(ch dot11.Channel, f dot11.Frame) {
	if d.radio.Channel() == ch && !d.switching {
		d.radio.Send(f, nil)
		return
	}
	if len(d.txq[ch]) >= txQueueLimit {
		d.stats.TxQueueDrops++
		return
	}
	d.stats.TxQueued++
	d.txq[ch] = append(d.txq[ch], f)
}

// rxTypes lists the frame types onFrame handles. The medium still draws
// for and counts a frame of any other type, but does not call onFrame.
var rxTypes = []dot11.FrameType{dot11.TypeBeacon, dot11.TypeProbeResp,
	dot11.TypeAuthResp, dot11.TypeAssocResp, dot11.TypeData}

// onFrame dispatches received frames to the scan table and the VIFs. The
// frame is the medium's, valid only for the call.
func (d *Driver) onFrame(f *dot11.Frame, info phy.RxInfo) {
	switch f.Type {
	case dot11.TypeBeacon, dot11.TypeProbeResp:
		// Reusing the previous entry's SSID string keeps the steady
		// beacon stream from allocating a copy per frame.
		prev := d.scan[f.Addr3]
		if body, err := dot11.DecodeBeaconBodyReuse(f.Body, prev.SSID); err == nil {
			d.scan[f.Addr3] = ScanEntry{
				BSSID:    f.Addr3,
				SSID:     body.SSID,
				Channel:  info.Channel,
				RSSI:     info.RSSI(),
				Open:     body.Capabilities&0x0010 == 0,
				LastSeen: info.At,
			}
			if d.OnScanUpdate != nil {
				d.OnScanUpdate()
			}
		}
	case dot11.TypeAuthResp, dot11.TypeAssocResp:
		for _, v := range d.vifs {
			if v.bssid == f.Addr3 && v.state != vifIdle {
				v.onMgmt(f)
			}
		}
	case dot11.TypeData:
		if f.Addr1 != d.MAC() {
			return
		}
		for _, v := range d.vifs {
			if v.bssid == f.Addr3 && v.state == vifAssociated {
				if v.OnPacket != nil {
					v.OnPacket(f.Packet)
				}
				return
			}
		}
	}
}
