// Package backhaul models the wired side of an access point: a rate-limited
// FIFO link with propagation delay and a bounded drop-tail queue. The
// paper's APs bottleneck on exactly this link — backhaul bandwidth is
// typically far below the 11 Mbit/s wireless rate — which is why
// aggregating several APs pays off.
package backhaul

import (
	"spider/internal/ipnet"
	"spider/internal/sim"
)

// Config describes one direction of a backhaul link.
type Config struct {
	// RateBps is the link bandwidth in bits/s. Zero means unlimited.
	RateBps float64
	// Delay is the one-way propagation/processing delay.
	Delay sim.Time
}

// queueLimit caps queued-but-not-transmitting packets; beyond it the link
// drops (drop-tail). 50 is a typical residential-gateway buffer.
const queueLimit = 50

// Link is one direction of a wired path. Packets serialize at RateBps,
// then arrive Delay later at the deliver callback.
type Link struct {
	eng     *sim.Engine
	cfg     Config
	deliver func(ipnet.Packet)

	busyUntil sim.Time
	queued    int
	blackhole bool
	extra     sim.Time

	free *deliverJob // recycled per-packet delivery jobs

	// Counters.
	Sent       uint64
	Dropped    uint64
	Blackholed uint64
}

// dequeueJob decrements the queue when a packet finishes serializing. It
// is stateless per packet, so one instance per link serves every
// in-flight packet (the scheduler holds one pooled node per firing).
type dequeueJob Link

func (j *dequeueJob) RunEvent() { j.queued-- }

// deliverJob hands one packet to the receive callback after propagation.
// Jobs are pooled on the link, so the per-packet path allocates neither
// closures nor handles.
type deliverJob struct {
	l    *Link
	p    ipnet.Packet
	next *deliverJob
}

func (j *deliverJob) RunEvent() {
	l := j.l
	p := j.p
	j.p = ipnet.Packet{}
	j.next = l.free
	l.free = j
	l.deliver(p)
}

// NewLink creates a link that hands received packets to deliver.
func NewLink(eng *sim.Engine, cfg Config, deliver func(ipnet.Packet)) *Link {
	if deliver == nil {
		panic("backhaul: NewLink with nil deliver")
	}
	return &Link{eng: eng, cfg: cfg, deliver: deliver}
}

// SetBlackhole drops every subsequent Send until cleared (fault
// injection). Packets already in flight still arrive.
func (l *Link) SetBlackhole(on bool) { l.blackhole = on }

// SetExtraDelay adds d to the propagation delay of subsequent packets (a
// latency spike); non-positive restores the configured delay.
func (l *Link) SetExtraDelay(d sim.Time) {
	if d < 0 {
		d = 0
	}
	l.extra = d
}

// Send enqueues a packet. It is dropped if the queue is full.
func (l *Link) Send(p ipnet.Packet) {
	if l.blackhole {
		l.Blackholed++
		return
	}
	now := l.eng.Now()
	if l.busyUntil < now {
		l.busyUntil = now
	}
	if l.queued >= queueLimit {
		l.Dropped++
		return
	}
	var txTime sim.Time
	if l.cfg.RateBps > 0 {
		txTime = sim.Time(float64(p.WireLen()*8) / l.cfg.RateBps * 1e9)
	}
	l.queued++
	l.busyUntil += txTime
	l.Sent++
	txDone := l.busyUntil - now
	l.eng.ScheduleCall(txDone, (*dequeueJob)(l))
	dj := l.free
	if dj == nil {
		dj = &deliverJob{l: l}
	} else {
		l.free = dj.next
		dj.next = nil
	}
	dj.p = p
	l.eng.ScheduleCall(txDone+l.cfg.Delay+l.extra, dj)
}
