package dhcp

import (
	"spider/internal/dot11"
	"spider/internal/ipnet"
	"spider/internal/obs"
	"spider/internal/sim"
)

// Lease is a bound DHCP lease. Spider caches these per BSSID to skip the
// Discover/Offer exchange on re-encounter.
type Lease struct {
	IP        ipnet.Addr
	Server    ipnet.Addr // gateway
	LeaseSecs uint32
}

// ClientConfig tunes the client state machine. The paper studies exactly
// these two knobs: the retransmission timeout and the total acquisition
// window.
type ClientConfig struct {
	// RetryTimeout is the per-message retransmission interval (the model's
	// c; default implementations use ~1 s, Spider reduces it to 100-600 ms).
	RetryTimeout sim.Time
	// AcquireWindow bounds the whole acquisition; the default stack tries
	// for 3 s before going idle.
	AcquireWindow sim.Time
	// Counts, when non-nil, accumulates the client's message counts. An
	// owner that spawns one client per acquisition shares one Counts
	// across all of them, so the totals outlive each client.
	Counts *Counts
}

// Counts totals DHCP client traffic across acquisitions.
type Counts struct {
	Acks, Naks, Retransmits int64
}

// DefaultClientConfig mirrors a stock DHCP client.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		RetryTimeout:  1000 * 1000 * 1000, // 1 s
		AcquireWindow: 3000 * 1000 * 1000, // 3 s
	}
}

// ReducedClientConfig is Spider's tuned client: timeout ms retransmits
// within the same 3 s window.
func ReducedClientConfig(timeout sim.Time) ClientConfig {
	return ClientConfig{RetryTimeout: timeout, AcquireWindow: 3000 * 1000 * 1000}
}

type clientState uint8

const (
	stateIdle clientState = iota
	stateDiscovering
	stateRequesting
	stateBound
	stateFailed
)

// Client runs one DHCP acquisition for one virtual interface. The owner
// supplies the datagram transmit path and receives exactly one completion
// callback per Start.
type Client struct {
	eng  *sim.Engine
	rng  *sim.RNG
	cfg  ClientConfig
	mac  dot11.MACAddr
	send func(Message)
	done func(Lease, bool)

	state    clientState
	xid      uint32
	pending  Message
	deadline sim.Time
	timer    sim.Timer // the retransmission deadline

	// Span, when non-nil, is the Join root span this acquisition's phases
	// nest under (set by the owner between NewClient and Start). The
	// client opens contiguous "dhcp-discover" / "dhcp-request" children;
	// renewal clients leave Span nil and trace nothing.
	Span  *obs.ActiveSpan
	phase *obs.ActiveSpan

	// Retransmits counts messages sent beyond the first of each phase.
	Retransmits int
}

// NewClient creates a client for one interface. send transmits a message
// toward the AP (lossily); done reports the outcome: (lease, true) on bind,
// (zero, false) on failure.
func NewClient(eng *sim.Engine, rng *sim.RNG, cfg ClientConfig, mac dot11.MACAddr, send func(Message), done func(Lease, bool)) *Client {
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = DefaultClientConfig().RetryTimeout
	}
	if cfg.AcquireWindow <= 0 {
		cfg.AcquireWindow = DefaultClientConfig().AcquireWindow
	}
	if send == nil || done == nil {
		panic("dhcp: NewClient requires send and done callbacks")
	}
	if cfg.Counts == nil {
		cfg.Counts = &Counts{}
	}
	c := &Client{eng: eng, rng: rng, cfg: cfg, mac: mac, send: send, done: done}
	c.timer.Bind(eng, sim.Func(c.onTimeout))
	return c
}

// Start begins acquisition. If cached is non-nil the client skips Discover
// and re-requests the cached address (DHCP INIT-REBOOT), falling back to a
// full exchange on NAK.
func (c *Client) Start(cached *Lease) {
	if c.state == stateDiscovering || c.state == stateRequesting {
		return
	}
	c.xid = uint32(c.rng.Int63())
	c.deadline = c.eng.Now() + c.cfg.AcquireWindow
	if cached != nil {
		c.state = stateRequesting
		c.pending = Message{Type: Request, XID: c.xid, ClientMAC: c.mac,
			YourIP: cached.IP, ServerIP: cached.Server}
		c.phase = c.Span.StartChild(c.eng.Now(), "dhcp-request")
	} else {
		c.state = stateDiscovering
		c.pending = Message{Type: Discover, XID: c.xid, ClientMAC: c.mac}
		c.phase = c.Span.StartChild(c.eng.Now(), "dhcp-discover")
	}
	c.transmit(true)
}

// Active reports whether an acquisition is in progress.
func (c *Client) Active() bool {
	return c.state == stateDiscovering || c.state == stateRequesting
}

// Stop abandons the acquisition without invoking the completion callback.
func (c *Client) Stop() {
	c.timer.Stop()
	c.phase.EndStatus(c.eng.Now(), "stopped")
	c.phase = nil
	c.state = stateIdle
}

func (c *Client) transmit(first bool) {
	if !first {
		c.Retransmits++
		c.cfg.Counts.Retransmits++
	}
	c.send(c.pending)
	c.timer.Reset(c.cfg.RetryTimeout)
}

func (c *Client) onTimeout() {
	if !c.Active() {
		return
	}
	if c.eng.Now() >= c.deadline {
		c.fail()
		return
	}
	c.transmit(false)
}

func (c *Client) fail() {
	c.timer.Stop()
	c.phase.EndStatus(c.eng.Now(), "fail")
	c.phase = nil
	c.state = stateFailed
	c.done(Lease{}, false)
}

// Deliver feeds a server response into the state machine. Messages with a
// foreign transaction id or for another MAC are ignored.
func (c *Client) Deliver(msg Message) {
	if !c.Active() || msg.XID != c.xid || msg.ClientMAC != c.mac {
		return
	}
	switch {
	case msg.Type == Offer && c.state == stateDiscovering:
		c.state = stateRequesting
		c.pending = Message{Type: Request, XID: c.xid, ClientMAC: c.mac,
			YourIP: msg.YourIP, ServerIP: msg.ServerIP}
		c.phase.EndStatus(c.eng.Now(), "ok")
		c.phase = c.Span.StartChild(c.eng.Now(), "dhcp-request")
		c.transmit(true)
	case msg.Type == Ack && c.state == stateRequesting:
		c.cfg.Counts.Acks++
		c.timer.Stop()
		c.phase.EndStatus(c.eng.Now(), "ok")
		c.phase = nil
		c.state = stateBound
		c.done(Lease{IP: msg.YourIP, Server: msg.ServerIP, LeaseSecs: msg.LeaseSecs}, true)
	case msg.Type == Nak && c.state == stateRequesting:
		c.cfg.Counts.Naks++
		// Cached lease rejected: restart with Discover inside the same
		// window if any time remains.
		if c.eng.Now() >= c.deadline {
			c.fail()
			return
		}
		c.state = stateDiscovering
		c.pending = Message{Type: Discover, XID: c.xid, ClientMAC: c.mac}
		c.phase.EndStatus(c.eng.Now(), "nak")
		c.phase = c.Span.StartChild(c.eng.Now(), "dhcp-discover")
		c.transmit(true)
	}
}
