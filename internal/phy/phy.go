// Package phy simulates the 802.11 physical layer: radios attached to a
// shared per-channel medium, distance-dependent frame loss, airtime
// accounting at a configurable bit rate, MAC-level retransmission of
// unicast frames, and the hardware-reset latency a channel switch costs.
//
// The model deliberately mirrors the factors the Spider paper isolates —
// loss rate h, switching overhead w, channel airtime — rather than
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
// A broadcast visits every radio on its channel, so the receiver loop
// computes only what the loss draws and the counters need. A radio that
// has stopped moving reads its position once and keeps it. A receiver at
// the same point as the radio visited just before it reuses that radio's
// distance and loss, and a transmission's rate and noise factors are fixed
// before the loop. A receiver whose callback does not handle the frame's
// type still takes its loss draw and still counts as delivered or lost;
// only the call is skipped. Every receiver in range therefore costs
// exactly one draw, as it always has.
package phy

import (
	"fmt"
	"math"

	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/sim"
)

// numChannels sizes the flat per-channel arrays; index 0 is unused
// (channels are 1..14, dot11.Channel.Valid).
const numChannels = 15

// Params configures the PHY model. NewMedium fills in some zero fields
// from Defaults(): Range, BitRate, PerFrameOverhead, SwitchLatency,
// RetryLimit and CollisionProb. It keeps a zero BaseLoss, so the medium
// is lossless at zero distance, and a false RateAdaptation, so every frame
// goes at BitRate. The zero Params is therefore not Defaults(), and it is
// what every shipped world runs with: none of them sets WorldConfig.Phy.
type Params struct {
	// Range is the usable communication radius in metres (paper: 100 m).
	Range float64
	// BitRate is the channel bit rate in bits/s (paper: 11 Mbit/s).
	BitRate float64
	// BaseLoss is the frame loss probability at zero distance (paper h≈0.10).
	BaseLoss float64
	// PerFrameOverhead is the PHY preamble + IFS + ACK time charged per
	// transmission attempt.
	PerFrameOverhead sim.Time
	// SwitchLatency is the hardware reset time for a channel change
	// (paper Table 1: ≈5 ms).
	SwitchLatency sim.Time
	// RetryLimit is the number of MAC retransmissions for unicast frames.
	RetryLimit int
	// CollisionProb is the per-contender collision probability of the
	// multi-station contention model. When a frame is committed to the air
	// while k other radios have frames in flight or queued on the same
	// channel, the attempt is corrupted with probability 1-(1-p)^k —
	// approximating simultaneous backoff expiry under CSMA/CA. Corrupted
	// unicast attempts go through the normal MAC retry path, so contention
	// costs airtime as well as loss. Zero selects the default; negative
	// disables collisions entirely (capacity is still shared, because all
	// transmissions on a channel serialize).
	CollisionProb float64
	// Loss optionally overrides the distance-loss curve. It receives the
	// transmitter-receiver distance in metres and returns a per-try loss
	// probability in [0,1] (ignoring the transmit rate). It must be a pure
	// function of distance: receivers at one point share one evaluation,
	// so the medium may call it fewer times than it delivers frames.
	Loss func(distance float64) float64
	// RateAdaptation enables per-peer ARF rate control over Rates; lower
	// rates are more robust near the range edge but cost airtime.
	RateAdaptation bool
	// Rates is the data-rate table in bits/s, lowest first (default
	// 802.11b: 1, 2, 5.5, 11 Mbit/s).
	Rates []float64
}

// Defaults returns the parameter set chosen to match the paper's testbed
// numbers, with the paper's base loss h = 0.10 and ARF rate adaptation on.
// Only phy's own tests run with it whole; a world that leaves Phy zero gets
// the subset NewMedium fills in (see Params).
func Defaults() Params {
	return Params{
		Range:            100,
		BitRate:          11e6,
		BaseLoss:         0.10,
		PerFrameOverhead: 400 * 1000, // 400µs: preamble+DIFS+SIFS+ACK
		SwitchLatency:    5 * 1000 * 1000,
		RetryLimit:       3,
		CollisionProb:    0.03,
		RateAdaptation:   true,
	}
}

func (p Params) withDefaults() Params {
	d := Defaults()
	if p.Range <= 0 {
		p.Range = d.Range
	}
	if p.BitRate <= 0 {
		p.BitRate = d.BitRate
	}
	if p.BaseLoss < 0 {
		p.BaseLoss = 0
	}
	if p.PerFrameOverhead <= 0 {
		p.PerFrameOverhead = d.PerFrameOverhead
	}
	if p.SwitchLatency < 0 {
		p.SwitchLatency = 0
	} else if p.SwitchLatency == 0 {
		p.SwitchLatency = d.SwitchLatency
	}
	if p.RetryLimit <= 0 {
		p.RetryLimit = d.RetryLimit
	}
	if p.CollisionProb < 0 {
		p.CollisionProb = 0
	} else if p.CollisionProb == 0 {
		p.CollisionProb = d.CollisionProb
	}
	return p
}

// lossCurve is one transmission's per-try loss as a function of distance
// alone: the rate's robustness and the channel's noise burst are fixed for
// the whole transmission, so they are computed once and the curve is
// evaluated per receiver.
type lossCurve struct {
	p      *Params
	robust float64 // rate factor on the distance term (1 without adaptation)
	noise  float64 // injected extra loss, combined as an independent event
}

// curve fixes the loss curve of a frame sent at rate on a channel with the
// given injected noise. Lower rates flatten the distance term — the
// robustness that makes ARF fallback worthwhile at the range edge — but
// the hard range cutoff is rate-independent.
func (p *Params) curve(rate, noise float64) lossCurve {
	c := lossCurve{p: p, robust: 1, noise: noise}
	if p.RateAdaptation && rate > 0 {
		c.robust = math.Sqrt(rate / p.maxRate())
	}
	return c
}

// lossAt returns the per-try loss at distance d for a frame sent at rate
// on a quiet channel.
func (p Params) lossAt(d, rate float64) float64 { return p.curve(rate, 0).at(d) }

// at returns the per-try loss probability at distance d.
func (c lossCurve) at(d float64) float64 {
	p := c.p
	var loss float64
	switch {
	case p.Loss != nil:
		loss = clamp01(p.Loss(d))
	case d >= p.Range:
		loss = 1
	default:
		frac := d / p.Range
		sq := frac * frac // frac⁴ by squaring: bit-identical to math.Pow(frac, 4)
		loss = clamp01(p.BaseLoss + (1-p.BaseLoss)*(sq*sq)*c.robust)
	}
	if c.noise > 0 {
		loss = 1 - (1-loss)*(1-c.noise)
	}
	return loss
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
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
type Stats struct {
	FramesSent       uint64 // transmission attempts, including retries
	FramesDelivered  uint64
	FramesLost       uint64 // unicast tries lost to channel error
	Collisions       uint64 // attempts corrupted by a contending transmitter
	Broadcasts       uint64
	UnicastFailed    uint64 // unicast gave up after all retries
	RateUps          uint64 // ARF rate increases
	RateDowns        uint64 // ARF rate decreases
	AirtimeByChannel map[dot11.Channel]sim.Time
}

// Medium is the shared wireless medium. All radios in a scenario attach to
// one Medium; each 802.11 channel is an independent, serialized collision
// domain.
type Medium struct {
	eng    *sim.Engine
	rng    *sim.RNG
	params Params

	// Flat per-channel state, indexed by channel number (1..14).
	byChannel [numChannels][]*Radio // registration order, so delivery iteration is deterministic
	busyUntil [numChannels]sim.Time
	noise     [numChannels]float64 // injected extra per-try loss
	// transmitters counts distinct radios with frames committed but not
	// yet off the air, per channel — the contention the collision model
	// charges against (each radio keeps its own per-channel counts).
	transmitters [numChannels]int32
	airtime      [numChannels]sim.Time
	// collide[k] caches the collision law 1-(1-p)^k for k contenders,
	// NaN until first used (CollisionProb is fixed at NewMedium).
	collide []float64
	stats   Stats
	tap     func(ch dot11.Channel, wire []byte, at sim.Time)
	tapWire []byte // scratch wire image, valid during one tap call

	// Recycled transmission jobs: a job returns here when its airtime ends.
	txFree *txJob
}

// NewMedium creates a medium on the given engine. rng must be a dedicated
// stream; the medium draws from it for loss sampling and backoff jitter.
func NewMedium(eng *sim.Engine, rng *sim.RNG, params Params) *Medium {
	return &Medium{eng: eng, rng: rng, params: params.withDefaults()}
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
	m.noise[ch] = clamp01(extraLoss)
}

// ChannelNoise returns the injected extra loss on ch (0 when clear).
func (m *Medium) ChannelNoise(ch dot11.Channel) float64 {
	if !ch.Valid() {
		return 0
	}
	return m.noise[ch]
}

// Params returns the effective (defaulted) parameter set.
func (m *Medium) Params() Params { return m.params }

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

// Airtime returns the on-air duration of a frame of the given wire length
// at the full bit rate, excluding queueing.
func (m *Medium) Airtime(wireLen int) sim.Time {
	return m.airtimeAt(wireLen, m.params.BitRate)
}

// airtimeAt charges a frame's on-air time at a specific rate.
func (m *Medium) airtimeAt(wireLen int, rate float64) sim.Time {
	bits := float64(wireLen * 8)
	return sim.Time(bits/rate*1e9) + m.params.PerFrameOverhead
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
// unicast stream to a peer at distance d: for each rate in the table it
// charges a full-size data frame's airtime plus per-frame overhead against
// the expected delivered payload (data and ACK must both survive, hence
// the squared survival term), and returns the best rate's goodput — the
// steady state ARF converges to. Zero at or beyond Range. This is the
// per-client rate model the proportional-fair allocator shares with the
// opt package's throughput framework.
func (p Params) ExpectedThroughput(d float64) float64 {
	if d >= p.Range {
		return 0
	}
	const payloadBytes = 1500.0
	rates := p.rates()
	if !p.RateAdaptation {
		rates = []float64{p.BitRate}
	}
	best := 0.0
	for _, rate := range rates {
		loss := p.lossAt(d, rate)
		succ := (1 - loss) * (1 - loss)
		if succ <= 0 {
			continue
		}
		air := payloadBytes*8/rate + float64(p.PerFrameOverhead)/1e9
		if g := payloadBytes * 8 * succ / air; g > best {
			best = g
		}
	}
	return best
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
	// after it is kept in at, and pos is not called again.
	stillFrom sim.Time
	still     bool
	at        geo.Point
	recv      func(*dot11.Frame, RxInfo)
	accepts   uint16 // bit t set: recv handles frame type t

	switching bool
	closed    bool
	down      bool // powered off by fault injection
	seq       uint16
	// pending counts this radio's frames committed but not yet off the
	// air, per channel; the medium's per-channel distinct-transmitter
	// count is maintained from the 0↔1 transitions.
	pending [numChannels]int32
	// ARF per-peer rate state: a flat slice of states indexed through a
	// small MAC→index map (one map insert per peer lifetime, no per-frame
	// allocation).
	arfIdx    map[dot11.MACAddr]int32
	arfStates []arfState
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
	r := &Radio{m: m, mac: mac, channel: dot11.Channel1, pos: pos, stillFrom: stillFrom,
		arfIdx: make(map[dot11.MACAddr]int32)}
	m.index(r, dot11.Channel1)
	return r
}

// index moves a radio into a channel's lookup list. The per-channel lists
// preserve registration order: delivery iterates them, and both the RNG
// draws consumed per receiver and the receive callback order must not
// depend on map iteration order for runs to be reproducible.
func (m *Medium) index(r *Radio, ch dot11.Channel) {
	m.byChannel[ch] = append(m.byChannel[ch], r)
}

func (m *Medium) unindex(r *Radio, ch dot11.Channel) {
	list := m.byChannel[ch]
	for i, x := range list {
		if x == r {
			m.byChannel[ch] = append(list[:i], list[i+1:]...)
			return
		}
	}
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

// Down reports whether the radio is powered off.
func (r *Radio) Down() bool { return r.down }

// Position returns the radio's current position. Once the radio is still,
// this is the point it read then.
func (r *Radio) Position() geo.Point {
	if r.still {
		return r.at
	}
	p := r.pos()
	if r.m.eng.Now() >= r.stillFrom {
		r.at, r.still = p, true
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
}

// Close detaches the radio from the medium. Frames in flight to it are
// dropped.
func (r *Radio) Close() {
	r.closed = true
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
	r.m.eng.Schedule(r.m.params.SwitchLatency, func() {
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

// SwitchLatency returns the hardware reset cost of a channel change.
func (r *Radio) SwitchLatency() sim.Time { return r.m.params.SwitchLatency }

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
		c = 1 - math.Pow(1-m.params.CollisionProb, float64(k))
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
	rate     float64
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
	if !m.deliver(j) {
		m.freeTxJob(j)
	}
}

// transmit commits one on-air attempt of j (j.attempt is the retry
// index). The rate is re-evaluated per attempt so ARF fallback applies to
// retries.
func (m *Medium) transmit(j *txJob) {
	src, ch, f := j.src, j.ch, &j.f
	now := m.eng.Now()
	start := now
	if bu := m.busyUntil[ch]; bu > start {
		start = bu
	}
	var rate float64
	if f.Addr1.IsBroadcast() {
		rate = m.params.broadcastRate()
	} else {
		rate = src.rateFor(f.Addr1)
	}
	// Contention: every other station with a frame committed on this
	// channel is racing our backoff. The collision draw happens at commit
	// time so the outcome is a pure function of the event sequence.
	collided := false
	if p := m.params.CollisionProb; p > 0 {
		if k := m.contenders(ch, src); k > 0 {
			collided = m.rng.Bool(m.collisionLaw(k))
		}
	}
	// Small random backoff decorrelates contending senders.
	start += m.rng.UniformDuration(0, 100*1000) // 0-100µs
	air := m.airtimeAt(f.WireLen(), rate)
	m.busyUntil[ch] = start + air
	src.txAirtime += air
	m.stats.FramesSent++
	m.airtime[ch] += air
	m.addPending(ch, src)
	j.rate, j.collided = rate, collided
	m.eng.ScheduleCall(start+air-now, j)
}

// deliver ends one attempt of j: tap it, hand it to receivers, and either
// report its outcome or retransmit. It reports whether j was rescheduled.
func (m *Medium) deliver(j *txJob) bool {
	src, ch, f, rate, status := j.src, j.ch, &j.f, j.rate, j.status
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
		srcPos, curve := src.Position(), m.params.curve(rate, m.noise[ch])
		// Receivers at one point share one distance and one loss: the
		// memo holds the previous radio visited (loss < 0: not yet
		// evaluated for that point).
		var last geo.Point
		d, loss := -1.0, -1.0
		for _, rx := range m.byChannel[ch] {
			if rx == src || rx.closed || rx.switching || rx.down || rx.recv == nil {
				continue
			}
			if pos := rx.Position(); d < 0 || pos != last {
				last, d, loss = pos, pos.Distance(srcPos), -1
			}
			if d > m.params.Range {
				continue
			}
			if loss < 0 {
				loss = curve.at(d)
			}
			if m.rng.Bool(loss) {
				m.stats.FramesLost++
				continue
			}
			m.deliverTo(rx, f, ch, d)
		}
		if status != nil {
			// Broadcasts are unacknowledged: the sender only knows the
			// frame has been on air, collided or not.
			status(true)
		}
		return false
	}

	// Unicast: locate the addressed radio on this channel.
	var target *Radio
	for _, rx := range m.byChannel[ch] {
		if rx.mac == f.Addr1 && !rx.closed && !rx.switching && !rx.down {
			target = rx
			break
		}
	}
	ok := false
	if target != nil && !j.collided {
		d := target.Position().Distance(src.Position())
		if d <= m.params.Range {
			// Success requires the data frame and the returning ACK to
			// both survive, hence the squared survival probability.
			p := 1 - m.params.curve(rate, m.noise[ch]).at(d)
			ok = m.rng.Bool(p * p)
			if ok && target.recv != nil {
				m.deliverTo(target, f, ch, d)
			}
		}
	}
	src.arfReport(f.Addr1, ok)
	if ok {
		if status != nil {
			status(true)
		}
		return false
	}
	m.stats.FramesLost++
	if j.attempt < m.params.RetryLimit && !src.closed && !src.switching && !src.down && src.channel == ch {
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

// deliverTo counts a reception and calls rx's receiver if it handles the
// frame's type.
func (m *Medium) deliverTo(rx *Radio, f *dot11.Frame, ch dot11.Channel, dist float64) {
	m.stats.FramesDelivered++
	if rx.accepts&(1<<f.Type) != 0 {
		rx.recv(f, RxInfo{Channel: ch, Distance: dist, At: m.eng.Now()})
	}
}
