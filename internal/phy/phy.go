// Package phy simulates the 802.11 physical layer: radios attached to a
// shared per-channel medium, distance-dependent frame loss, airtime
// accounting at 11 Mbit/s, MAC-level retransmission of unicast frames, and
// the hardware-reset latency a channel switch costs.
//
// The model deliberately mirrors the factors the Spider paper isolates —
// frame loss, switching overhead w, channel airtime — rather than
// symbol-level detail. Each channel is a single collision domain whose
// transmissions serialize, which matches the paper's single-client,
// several-AP roadside scenarios.
//
// The medium carries dot11.Frame values, not bytes: only a capture tap
// ever serializes a frame. Each transmission's frame lives in a pooled job
// until its last receiver has seen it, and receivers get a pointer to it,
// so a data frame and its packet are copied once per Send, not once per
// receiver. Per-channel state lives in flat channel-indexed arrays (there
// are only 14 channels), so the commit/deliver path does not allocate at
// city-scale populations.
//
// A broadcast reaches every radio on its channel, so the receiver loop
// computes only what the loss draws and the counters need. A radio that
// has stopped moving reads its position once and keeps it. A receiver at
// the same point as the radio visited just before it reuses that radio's
// distance and loss, and a transmission's channel noise is fixed before the
// loop. A receiver whose callback does not handle the frame's type still
// counts as delivered or lost; only the call is skipped.
//
// Still receivers that sit next to each other in a channel's order, at one
// point and handling the same frame types, form a run, and the loop meets
// a run of two or more once: it is skipped whole out of range, and it is
// counted whole when its loss is 1, or 0 with a frame type it does not
// handle. Such members take no loss draw (a draw at a loss of 0 or 1 is
// decided without the stream) and get no call, so counting them changes
// no draw, no call and no counter. Any other run is visited member by
// member. A channel's runs are rebuilt at its next broadcast after its
// list or a member's state changes; a change made by a receiver during the
// loop retires the rest of that loop's runs. A unicast frame finds its
// target through an index by address.
package phy

import (
	"encoding/binary"
	"fmt"
	"math"

	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/sim"
)

// numChannels sizes the flat per-channel arrays; index 0 is unused
// (channels are 1..14, dot11.Channel.Valid).
const numChannels = 15

// The PHY's constants: the paper's testbed figures, and the values every
// world runs with.
const (
	// txRange is the usable communication radius in metres (paper: 100 m).
	txRange = 100
	// bitRate is the channel bit rate in bits/s (paper: 11 Mbit/s); every
	// frame goes at it.
	bitRate = 11e6
	// perFrameOverhead is the PHY preamble + IFS + ACK time charged per
	// transmission attempt.
	perFrameOverhead sim.Time = 400 * 1000 // 400 µs
	// retryLimit is the number of MAC retransmissions for unicast frames.
	retryLimit = 3
	// collisionProb is the per-contender collision probability of the
	// multi-station contention model. When a frame is committed to the air
	// while k other radios have frames in flight or queued on the same
	// channel, the attempt is corrupted with probability 1-(1-p)^k —
	// approximating simultaneous backoff expiry under CSMA/CA. Corrupted
	// unicast attempts go through the normal MAC retry path, so contention
	// costs airtime as well as loss.
	collisionProb = 0.03
)

// SwitchLatency is the hardware reset time for a channel change (paper
// Table 1: ≈5 ms).
const SwitchLatency sim.Time = 5 * 1000 * 1000

// lossAt returns the per-try loss probability at distance d on a channel
// with the given injected noise: the distance term (d/txRange)⁴, 1 at and
// beyond txRange, combined with the noise as an independent loss event.
// The paper's loss rate h applies to join messages (internal/model); the
// medium's only loss beyond distance is the noise chaos injects.
func lossAt(d, noise float64) float64 {
	loss := 1.0
	if d < txRange {
		frac := d / txRange
		sq := frac * frac // frac⁴ by squaring: bit-identical to math.Pow(frac, 4)
		loss = sq * sq
	}
	if noise > 0 {
		loss = 1 - (1-loss)*(1-noise)
	}
	return loss
}

// RxInfo carries reception metadata alongside a received frame.
type RxInfo struct {
	Channel  dot11.Channel
	Distance float64 // transmitter-receiver distance in metres
	At       sim.Time
}

// RSSI converts Distance to a log-distance RSSI in dBm, on demand; used
// only for ranking APs, not for loss.
func (i RxInfo) RSSI() float64 { return -30 - 35*math.Log10(max(i.Distance, 1)) }

// Stats aggregates medium-level counters for debugging and benchmarks.
//
// Two kinds of attempt land in neither FramesDelivered nor FramesLost: a
// unicast try acknowledged by a target that has no receiver, and any
// attempt whose sender closed while it was on the air. The latter counts
// in FramesSent only.
type Stats struct {
	// FramesSent counts transmission attempts, retries included.
	FramesSent uint64
	// FramesDelivered counts receptions: one per broadcast receiver that
	// heard the frame, and one per acknowledged unicast try to a target
	// with a receiver.
	FramesDelivered uint64
	// FramesLost counts every failed unicast try (lost to a loss draw, to a
	// collision, or to a target that is missing or out of range), every
	// broadcast receiver in range that lost the frame, and one per collided
	// broadcast.
	FramesLost uint64
	// Collisions counts attempts corrupted by a contending transmitter.
	Collisions uint64
	// Broadcasts counts broadcast attempts, collided ones included.
	Broadcasts uint64
	// UnicastFailed counts unicast frames given up after all retries.
	UnicastFailed uint64
	// AirtimeByChannel is the on-air time committed per channel, retries
	// included (see ChannelAirtime).
	AirtimeByChannel map[dot11.Channel]sim.Time
}

// Medium is the shared wireless medium. All radios in a scenario attach to
// one Medium; each 802.11 channel is an independent, serialized collision
// domain.
type Medium struct {
	eng *sim.Engine
	rng *sim.RNG

	// Flat per-channel state, indexed by channel number (1..14).
	byChannel [numChannels][]*Radio // registration order, so delivery iteration is deterministic
	busyUntil [numChannels]sim.Time
	noise     [numChannels]float64 // injected extra per-try loss
	// transmitters counts distinct radios with frames committed but not
	// yet off the air, per channel — the contention the collision model
	// charges against (each radio keeps its own per-channel counts).
	transmitters [numChannels]int32
	airtime      [numChannels]sim.Time
	// collisionProb is the per-contender collision probability. It is
	// always the constant; only phy's own tests set another value (1 for
	// exact outcomes, 0 for none), before the first transmission.
	collisionProb float64
	// collide[k] caches the collision law 1-(1-p)^k for k contenders,
	// NaN until first used.
	collide []float64
	stats   Stats
	tap     func(ch dot11.Channel, wire []byte, at sim.Time)
	tapWire []byte // scratch wire image, valid during one tap call

	// Recycled transmission jobs: a job returns here when its airtime ends.
	txFree *txJob

	// runs[ch] lists the runs of two or more radios in byChannel[ch], in
	// order. stale[ch] is set by any change to the channel's list or to a
	// listed radio's state, and runs[ch] is rebuilt at the next broadcast.
	runs  [numChannels][]run
	stale [numChannels]bool
	// runIDs numbers runs across rebuilds, so a radio's runID names the run
	// it was last placed in and no older one.
	runIDs uint64
	// byMAC maps an address to the one radio created with it, until that
	// radio closes; it holds nil once two radios have shared the address,
	// and a unicast to that address scans the channel's list instead.
	byMAC map[uint64]*Radio
	// deliverJob ends one on-air attempt: (*Medium).deliver, or in
	// FuzzDelivery's reference medium the per-radio loop and scan that the
	// runs and byMAC replaced.
	deliverJob func(*Medium, *txJob) bool
}

// run is byChannel[ch][start:end]: radios that are all eligible receivers
// (open, not switching, up, with a receiver), still, at one point and
// handling the same frame types.
type run struct {
	start, end int32
	accepts    uint16
	at         geo.Point
	id         uint64
}

// NewMedium creates a medium on the given engine. rng must be a dedicated
// stream; the medium draws from it for loss sampling and backoff jitter.
func NewMedium(eng *sim.Engine, rng *sim.RNG) *Medium {
	return &Medium{eng: eng, rng: rng, collisionProb: collisionProb,
		byMAC: make(map[uint64]*Radio), deliverJob: (*Medium).deliver}
}

// SetChannelNoise injects an additional per-try loss probability applied
// to every frame on ch — a chaos noise burst. The burst combines with
// the distance model as an independent loss event; non-positive clears it.
func (m *Medium) SetChannelNoise(ch dot11.Channel, extraLoss float64) {
	if !ch.Valid() {
		return
	}
	if extraLoss <= 0 {
		m.noise[ch] = 0
		return
	}
	m.noise[ch] = min(extraLoss, 1)
}

// Stats returns a snapshot of the medium counters. The per-channel airtime
// map is materialized from the flat internal array on each call.
func (m *Medium) Stats() Stats {
	s := m.stats
	s.AirtimeByChannel = make(map[dot11.Channel]sim.Time)
	for ch, a := range m.airtime {
		if a > 0 {
			s.AirtimeByChannel[dot11.Channel(ch)] = a
		}
	}
	return s
}

// SetTap installs a monitor callback observing every frame as its airtime
// completes — transmissions and retransmissions alike, regardless of
// delivery outcome. Used by the pcap capture facility. wire is that
// attempt's serialized image, valid only during the call.
func (m *Medium) SetTap(fn func(ch dot11.Channel, wire []byte, at sim.Time)) { m.tap = fn }

// Airtime returns the on-air duration of a frame of the given wire length,
// excluding queueing.
func (m *Medium) Airtime(wireLen int) sim.Time {
	bits := float64(wireLen * 8)
	return sim.Time(bits/bitRate*1e9) + perFrameOverhead
}

// DistanceForRSSI inverts the log-distance RSSI model: the transmitter
// distance in metres that produces the given RSSI reading. Clamped to the
// model's 1 m near-field floor. Allocation policies use it to turn a scan
// entry's RSSI back into the geometry the throughput model wants.
func DistanceForRSSI(rssi float64) float64 {
	d := math.Pow(10, -(rssi+30)/35)
	if d < 1 {
		return 1
	}
	return d
}

// ChannelAirtime returns the cumulative on-air time committed on ch since
// the start of the run — the occupancy integral a carrier-sensing station
// can measure. Sampling it twice and dividing by the wall interval gives
// the channel's busy fraction over that window. Zero for invalid channels.
func (m *Medium) ChannelAirtime(ch dot11.Channel) sim.Time {
	if !ch.Valid() {
		return 0
	}
	return m.airtime[ch]
}

// ChannelContenders returns the number of distinct radios that currently
// have frames committed but not yet off the air on ch — the instantaneous
// contention the collision model charges against. Zero for invalid
// channels.
func (m *Medium) ChannelContenders(ch dot11.Channel) int {
	if !ch.Valid() {
		return 0
	}
	return int(m.transmitters[ch])
}

// ChannelAirtime exposes the medium's cumulative per-channel occupancy
// through the radio — the carrier-sense view a station's firmware reports.
func (r *Radio) ChannelAirtime(ch dot11.Channel) sim.Time { return r.m.ChannelAirtime(ch) }

// ChannelContenders exposes the medium's instantaneous per-channel
// transmitter count through the radio.
func (r *Radio) ChannelContenders(ch dot11.Channel) int { return r.m.ChannelContenders(ch) }

// ExpectedThroughput models the saturated MAC goodput, in bits/s, of a
// unicast stream to a peer at distance d on a quiet channel: it charges a
// full-size data frame's airtime plus per-frame overhead against the
// expected delivered payload (data and ACK must both survive, hence the
// squared survival term). Zero at or beyond the 100 m range. This is the
// per-client rate model the proportional-fair allocator shares with the
// opt package's throughput framework.
func ExpectedThroughput(d float64) float64 {
	const payloadBytes = 1500.0
	loss := lossAt(d, 0)
	succ := (1 - loss) * (1 - loss)
	air := payloadBytes*8/bitRate + float64(perFrameOverhead)/1e9
	return payloadBytes * 8 * succ / air
}

// Radio is a single physical 802.11 interface: it is tuned to one channel
// at a time, transmits frames onto the medium, and delivers received frames
// to its receiver callback.
type Radio struct {
	m       *Medium
	mac     dot11.MACAddr
	channel dot11.Channel
	pos     func() geo.Point
	// From stillFrom on, pos returns one fixed point: the first read at or
	// after it is kept in at, still is set, and pos is not called again.
	stillFrom sim.Time
	at        geo.Point
	runID     uint64 // the run a rebuild last placed the radio in
	recv      func(*dot11.Frame, RxInfo)
	accepts   uint16 // bit t set: recv handles frame type t
	still     bool

	switching bool
	closed    bool
	down      bool // powered off by fault injection
	seq       uint16
	// pending counts this radio's frames committed but not yet off the
	// air, per channel; the medium's per-channel distinct-transmitter
	// count is maintained from the 0↔1 transitions.
	pending   [numChannels]int32
	txAirtime sim.Time
}

// NewRadio attaches a radio to the medium. pos is sampled at delivery time,
// so mobile nodes simply pass a closure over their mobility model.
// stillFrom is the time from which pos returns one fixed point: the radio
// reads its position once at or after it and keeps it. A fixed radio
// passes 0; a radio that may move forever passes sim.Infinity. The radio
// starts tuned to channel 1 with no receiver.
func (m *Medium) NewRadio(mac dot11.MACAddr, pos func() geo.Point, stillFrom sim.Time) *Radio {
	if pos == nil {
		panic("phy: NewRadio with nil position func")
	}
	r := &Radio{m: m, mac: mac, channel: dot11.Channel1, pos: pos, stillFrom: stillFrom}
	k := macKey(mac)
	if _, shared := m.byMAC[k]; shared {
		m.byMAC[k] = nil
	} else {
		m.byMAC[k] = r
	}
	m.index(r, dot11.Channel1)
	return r
}

// macKey packs an address into a map key.
func macKey(a dot11.MACAddr) uint64 {
	return uint64(binary.LittleEndian.Uint32(a[:4])) | uint64(binary.LittleEndian.Uint16(a[4:]))<<32
}

// index moves a radio into a channel's lookup list. The per-channel lists
// preserve registration order: delivery iterates them, and both the RNG
// draws consumed per receiver and the receive callback order must not
// depend on map iteration order for a simulation to be reproducible.
func (m *Medium) index(r *Radio, ch dot11.Channel) {
	m.byChannel[ch] = append(m.byChannel[ch], r)
	m.stale[ch] = true
}

func (m *Medium) unindex(r *Radio, ch dot11.Channel) {
	m.stale[ch] = true
	list := m.byChannel[ch]
	for i, x := range list {
		if x == r {
			m.byChannel[ch] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// receives reports whether a broadcast on the radio's list reaches its
// receiver: it is open, not switching, up and has one.
func (r *Radio) receives() bool {
	return !r.closed && !r.switching && !r.down && r.recv != nil
}

// buildRuns rebuilds the runs of ch's list.
func (m *Medium) buildRuns(ch dot11.Channel) {
	m.stale[ch] = false
	runs, list := m.runs[ch][:0], m.byChannel[ch]
	for i := 0; i < len(list); {
		r, j := list[i], i+1
		if r.still && r.receives() {
			for j < len(list) && list[j].still && list[j].receives() &&
				list[j].at == r.at && list[j].accepts == r.accepts {
				j++
			}
		}
		if j-i > 1 {
			m.runIDs++
			for _, x := range list[i:j] {
				x.runID = m.runIDs
			}
			runs = append(runs, run{start: int32(i), end: int32(j), accepts: r.accepts, at: r.at, id: m.runIDs})
		}
		i = j
	}
	m.runs[ch] = runs
}

// MAC returns the radio's MAC address.
func (r *Radio) MAC() dot11.MACAddr { return r.mac }

// Channel returns the channel the radio is currently tuned to.
func (r *Radio) Channel() dot11.Channel { return r.channel }

// Switching reports whether the radio is mid hardware reset.
func (r *Radio) Switching() bool { return r.switching }

// SetDown powers the radio off or back on (an AP crash/reboot). A downed
// radio neither sends nor receives; frames in flight to it are lost.
func (r *Radio) SetDown(down bool) {
	if r.closed || r.down == down {
		return
	}
	r.down = down
	if down {
		r.m.unindex(r, r.channel)
	} else if !r.switching {
		r.m.index(r, r.channel)
	}
}

// Position returns the radio's current position. Once the radio is still,
// this is the point it read then.
func (r *Radio) Position() geo.Point {
	if r.still {
		return r.at
	}
	p := r.pos()
	if r.m.eng.Now() >= r.stillFrom {
		r.at, r.still = p, true
		r.m.stale[r.channel] = true
	}
	return p
}

// SetReceiver installs the frame delivery callback and the frame types it
// handles; no types means every type. A frame of another type still takes
// its loss draw and counts in FramesDelivered or FramesLost, exactly as if
// fn had ignored it, but fn is not called. The frame belongs to the medium
// and is valid only during the call: a receiver copies out what it keeps
// (the packet value, say) and never writes through the pointer. An unknown
// frame type panics.
func (r *Radio) SetReceiver(fn func(*dot11.Frame, RxInfo), types ...dot11.FrameType) {
	r.recv, r.accepts = fn, ^uint16(0)
	if len(types) > 0 {
		r.accepts = 0
	}
	for _, t := range types {
		if !t.Valid() {
			panic(fmt.Sprintf("phy: SetReceiver with unknown frame type %d", t))
		}
		r.accepts |= 1 << t
	}
	r.m.stale[r.channel] = true
}

// Close detaches the radio from the medium. Frames in flight to it are
// dropped.
func (r *Radio) Close() {
	r.closed = true
	if k := macKey(r.mac); r.m.byMAC[k] == r {
		delete(r.m.byMAC, k)
	}
	r.m.unindex(r, r.channel)
}

// SetChannel retunes the radio, costing the hardware-reset latency during
// which the radio neither sends nor receives. done, if non-nil, runs when
// the switch completes. Switching to the current channel is free and done
// runs immediately.
func (r *Radio) SetChannel(ch dot11.Channel, done func()) {
	if !ch.Valid() {
		panic(fmt.Sprintf("phy: invalid channel %d", ch))
	}
	if ch == r.channel && !r.switching {
		if done != nil {
			done()
		}
		return
	}
	r.switching = true
	r.m.stale[r.channel] = true
	r.m.eng.Schedule(SwitchLatency, func() {
		if r.closed {
			return
		}
		r.m.unindex(r, r.channel)
		r.channel = ch
		if !r.down {
			r.m.index(r, ch)
		}
		r.switching = false
		if done != nil {
			done()
		}
	})
}

// TxAirtime returns the cumulative on-air transmit time of this radio
// (including retries), for energy accounting.
func (r *Radio) TxAirtime() sim.Time { return r.txAirtime }

// NextSeq returns a fresh MAC sequence number.
func (r *Radio) NextSeq() uint16 {
	r.seq++
	return r.seq
}

// Send transmits a frame on the radio's current channel. Broadcast frames
// (Addr1 == Broadcast) are delivered lossily to every in-range radio on the
// channel and status reports true once the frame has been on air. Unicast
// frames are retried up to the MAC retry limit; status reports whether the
// receiver acknowledged. status may be nil.
//
// Send stamps Addr2 and keeps the frame value until its last attempt is
// delivered; receivers see that one copy. A management body is not
// copied: the caller must never mutate it afterwards, and receivers may
// alias it indefinitely (its capacity is clipped, so appending copies).
// An unknown frame type panics.
//
// The transmission serializes with other traffic on the channel: it starts
// when the channel is free.
func (r *Radio) Send(f dot11.Frame, status func(ok bool)) {
	if !f.Type.Valid() {
		panic(fmt.Sprintf("phy: Send with unknown frame type %d", f.Type))
	}
	if r.closed || r.switching || r.down {
		if status != nil {
			r.m.eng.Schedule(0, func() { status(false) })
		}
		return
	}
	j := r.m.newTxJob()
	j.src, j.ch, j.f, j.status = r, r.channel, f, status
	j.f.Addr2 = r.mac
	j.f.Body = f.Body[:len(f.Body):len(f.Body)]
	r.m.transmit(j)
}

// contenders counts OTHER radios with frames committed but not yet off the
// air on ch — the stations this transmission races against.
func (m *Medium) contenders(ch dot11.Channel, src *Radio) int {
	k := int(m.transmitters[ch])
	if src.pending[ch] > 0 {
		k--
	}
	return k
}

// collisionLaw returns the probability 1-(1-p)^k that an attempt against
// k contenders collides. Each entry is computed once, on first use, by
// that expression, so the table moves no draw.
func (m *Medium) collisionLaw(k int) float64 {
	for len(m.collide) <= k {
		m.collide = append(m.collide, math.NaN())
	}
	c := m.collide[k]
	if math.IsNaN(c) {
		c = 1 - math.Pow(1-m.collisionProb, float64(k))
		m.collide[k] = c
	}
	return c
}

func (m *Medium) addPending(ch dot11.Channel, src *Radio) {
	if src.pending[ch] == 0 {
		m.transmitters[ch]++
	}
	src.pending[ch]++
}

func (m *Medium) removePending(ch dot11.Channel, src *Radio) {
	src.pending[ch]--
	if src.pending[ch] == 0 {
		m.transmitters[ch]--
	}
}

// txJob carries one transmission from Send until its last attempt is
// delivered. Jobs are pooled on the medium and scheduled as sim.Runnables,
// so the per-frame event costs no closure and no handle. Receivers get a
// pointer to the job's frame, so a job is recycled after delivery, and a
// retransmission reschedules the same job.
type txJob struct {
	m        *Medium
	src      *Radio
	f        dot11.Frame
	status   func(ok bool)
	attempt  int
	ch       dot11.Channel
	collided bool
	next     *txJob
}

func (m *Medium) newTxJob() *txJob {
	j := m.txFree
	if j == nil {
		return &txJob{m: m}
	}
	m.txFree = j.next
	j.next = nil
	return j
}

func (m *Medium) freeTxJob(j *txJob) {
	*j = txJob{m: m, next: m.txFree}
	m.txFree = j
}

// RunEvent fires at the end of the frame's airtime: release the contention
// slot, deliver, and recycle the job unless delivery queued a retry.
func (j *txJob) RunEvent() {
	m := j.m
	m.removePending(j.ch, j.src)
	if !m.deliverJob(m, j) {
		m.freeTxJob(j)
	}
}

// transmit commits one on-air attempt of j (j.attempt is the retry
// index).
func (m *Medium) transmit(j *txJob) {
	src, ch := j.src, j.ch
	now := m.eng.Now()
	start := now
	if bu := m.busyUntil[ch]; bu > start {
		start = bu
	}
	// Contention: every other station with a frame committed on this
	// channel is racing our backoff. The collision draw happens at commit
	// time so the outcome is a pure function of the event sequence; a law
	// of 0 takes no draw.
	collided := false
	if k := m.contenders(ch, src); k > 0 {
		collided = m.rng.Bool(m.collisionLaw(k))
	}
	// Small random backoff decorrelates contending senders.
	start += m.rng.UniformDuration(0, 100*1000) // 0-100µs
	air := m.Airtime(j.f.WireLen())
	m.busyUntil[ch] = start + air
	src.txAirtime += air
	m.stats.FramesSent++
	m.airtime[ch] += air
	m.addPending(ch, src)
	j.collided = collided
	m.eng.ScheduleCall(start+air-now, j)
}

// deliver ends one attempt of j: tap it, hand it to receivers, and either
// report its outcome or retransmit. It reports whether j was rescheduled.
func (m *Medium) deliver(j *txJob) bool {
	src, ch, f, status := j.src, j.ch, &j.f, j.status
	if m.tap != nil {
		m.tapWire = f.AppendTo(m.tapWire[:0])
		m.tap(ch, m.tapWire, m.eng.Now())
	}
	if src.closed {
		return false
	}
	if j.collided {
		m.stats.Collisions++
	}
	if f.Addr1.IsBroadcast() {
		m.stats.Broadcasts++
		if j.collided {
			m.stats.FramesLost++
			if status != nil {
				status(true)
			}
			return false
		}
		m.fanOut(src, ch, f, m.noise[ch])
		if status != nil {
			// Broadcasts are unacknowledged: the sender only knows the
			// frame has been on air, collided or not.
			status(true)
		}
		return false
	}

	target := m.target(ch, f.Addr1)
	ok := false
	if target != nil && !j.collided {
		d := target.Position().Distance(src.Position())
		if d <= txRange {
			// Success requires the data frame and the returning ACK to
			// both survive, hence the squared survival probability.
			p := 1 - lossAt(d, m.noise[ch])
			ok = m.rng.Bool(p * p)
			if ok && target.recv != nil {
				m.deliverTo(target, f, ch, d)
			}
		}
	}
	if ok {
		if status != nil {
			status(true)
		}
		return false
	}
	m.stats.FramesLost++
	if j.attempt < retryLimit && !src.closed && !src.switching && !src.down && src.channel == ch {
		f.Retry = true
		j.attempt++
		m.transmit(j)
		return true
	}
	m.stats.UnicastFailed++
	if status != nil {
		status(false)
	}
	return false
}

// fanOut hands one broadcast from src to every other receiver on ch, in
// list order. Receivers at one point share one distance and one loss: the
// memo holds the previous point met (loss < 0: not yet evaluated for it).
// A run (see buildRuns) is met once, at its first member, and counted
// whole where each member would take no draw and get no call; otherwise
// its members are visited like any other radio. A receiver's call may
// change the list or a radio's state; the loop then goes on radio by radio
// through the slice it began with, reading each entry as it is now, and
// meets no further run.
func (m *Medium) fanOut(src *Radio, ch dot11.Channel, f *dot11.Frame, noise float64) {
	srcPos := src.Position()
	if m.stale[ch] {
		m.buildRuns(ch)
	}
	list, runs := m.byChannel[ch], m.runs[ch]
	next := len(list) // where the next run starts
	if len(runs) > 0 {
		next = int(runs[0].start)
	}
	var last geo.Point
	d, loss := -1.0, -1.0
	for i := 0; i < len(list); i++ {
		if i == next {
			r := &runs[0]
			runs = runs[1:]
			next = len(list)
			if m.stale[ch] {
				runs = nil // a call changed the channel: no run is current
			} else {
				if len(runs) > 0 {
					next = int(runs[0].start)
				}
				if d < 0 || r.at != last {
					last, d, loss = r.at, r.at.Distance(srcPos), -1
				}
				if d > txRange {
					i = int(r.end) - 1
					continue
				}
				if loss < 0 {
					loss = lossAt(d, noise)
				}
				if loss >= 1 || loss <= 0 && r.accepts&(1<<f.Type) == 0 {
					n := uint64(r.end - r.start)
					if src.runID == r.id {
						n-- // the sender does not hear itself
					}
					if loss >= 1 {
						m.stats.FramesLost += n
					} else {
						m.stats.FramesDelivered += n
					}
					i = int(r.end) - 1
					continue
				}
			}
		}
		rx := list[i]
		if rx == src || !rx.receives() {
			continue
		}
		if pos := rx.Position(); d < 0 || pos != last {
			last, d, loss = pos, pos.Distance(srcPos), -1
		}
		if d > txRange {
			continue
		}
		if loss < 0 {
			loss = lossAt(d, noise)
		}
		if m.rng.Bool(loss) {
			m.stats.FramesLost++
			continue
		}
		m.deliverTo(rx, f, ch, d)
	}
}

// target returns the radio a unicast frame to addr on ch reaches: the
// first radio in ch's list with that address that is not closed, switching
// or down, or nil. byMAC answers for an address that one open radio has:
// an open radio that is up and not switching is on its channel's list.
func (m *Medium) target(ch dot11.Channel, addr dot11.MACAddr) *Radio {
	r, ok := m.byMAC[macKey(addr)]
	if r != nil {
		if r.channel == ch && !r.switching && !r.down {
			return r
		}
		return nil
	}
	if ok {
		for _, rx := range m.byChannel[ch] {
			if rx.mac == addr && !rx.closed && !rx.switching && !rx.down {
				return rx
			}
		}
	}
	return nil
}

// deliverTo counts a reception and calls rx's receiver if it handles the
// frame's type.
func (m *Medium) deliverTo(rx *Radio, f *dot11.Frame, ch dot11.Channel, dist float64) {
	m.stats.FramesDelivered++
	if rx.accepts&(1<<f.Type) != 0 {
		rx.recv(f, RxInfo{Channel: ch, Distance: dist, At: m.eng.Now()})
	}
}
