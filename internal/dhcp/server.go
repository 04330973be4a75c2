package dhcp

import (
	"time"

	"spider/internal/ipam"
	"spider/internal/ipnet"
	"spider/internal/sim"
)

// ServerConfig controls a simulated AP-side DHCP server.
type ServerConfig struct {
	// Gateway is the server/gateway address handed to clients.
	Gateway ipnet.Addr
	// RespDelayMin/Max bound the uniform per-response processing delay.
	// The paper's β is the end-to-end join response time; residential APs
	// show βmin ≈ 0.5 s and βmax of several seconds.
	RespDelayMin sim.Time
	RespDelayMax sim.Time
	// LeaseSecs is the advertised lease duration.
	LeaseSecs uint32
	// ExpireLeases enforces LeaseSecs server-side: a lease that is not
	// renewed is reclaimed by a sim-time sweep exactly when it expires,
	// so LeasesInUse decays without an explicit release. Off by default
	// so that unit harnesses draining the event queue see no background
	// events; core scenarios turn it on.
	ExpireLeases bool
}

// DefaultServerConfig mirrors a typical open residential AP from the
// paper's measurements.
func DefaultServerConfig(gateway ipnet.Addr) ServerConfig {
	return ServerConfig{
		Gateway:      gateway,
		RespDelayMin: 100 * 1000 * 1000,  // 100 ms per response;
		RespDelayMax: 1250 * 1000 * 1000, // two responses span ≈[0.2s, 2.5s]
		LeaseSecs:    3600,
	}
}

// FaultMode selects an injected server misbehaviour (package chaos).
type FaultMode uint8

const (
	// FaultNone is normal operation.
	FaultNone FaultMode = iota
	// FaultSilent drops every client message without a response.
	FaultSilent
	// FaultNak answers every Discover and Request with NAK.
	FaultNak
	// FaultExhausted makes the pool behave exhausted for clients that do
	// not already hold a lease.
	FaultExhausted
)

func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultSilent:
		return "silent"
	case FaultNak:
		return "nak"
	case FaultExhausted:
		return "exhausted"
	}
	return "unknown"
}

// Server is a DHCP server bound to one AP. It answers Discover with Offer
// and Request with Ack (or Nak when the pool is exhausted or the requested
// address conflicts with the live pool), each after a sampled processing
// delay. Address management lives in internal/ipam: the server translates
// protocol messages into allocations against its binding.
type Server struct {
	eng *sim.Engine
	rng *sim.RNG
	cfg ServerConfig

	binding *ipam.Binding
	fault   FaultMode

	sweepTimer sim.Timer // the expiry sweep, armed at the earliest lease deadline

	// Counters for experiment reporting.
	Offers        int
	Acks          int
	Naks          int
	PoolExhausted int // requests refused because no address was free
	Conflicts     int // requests NAKed because the address was not validly rebindable
	Reclaimed     int // leases reclaimed by the expiry sweep
	FaultDrops    int // messages swallowed by FaultSilent
}

// NewServer creates a server that draws addresses through binding, its
// handle on an ipam pool hierarchy (required). rng must be a dedicated
// stream.
func NewServer(eng *sim.Engine, rng *sim.RNG, cfg ServerConfig, binding *ipam.Binding) *Server {
	if binding == nil {
		panic("dhcp: NewServer needs an ipam binding")
	}
	if cfg.RespDelayMax < cfg.RespDelayMin {
		cfg.RespDelayMax = cfg.RespDelayMin
	}
	s := &Server{eng: eng, rng: rng, cfg: cfg, binding: binding}
	s.sweepTimer.Bind(eng, sim.Func(s.sweep))
	return s
}

// SetFault switches the server's fault mode (fault injection).
func (s *Server) SetFault(m FaultMode) { s.fault = m }

// LeasesInUse reports the number of currently bound leases.
func (s *Server) LeasesInUse() int { return s.binding.LeaseCount() }

// Exhausted reports whether a fresh allocation would fail right now —
// either the binding's whole hierarchy is in use or the server is faulted
// to behave so. Outage attribution reads this to name `ipam-exhausted`.
func (s *Server) Exhausted() bool {
	return s.fault == FaultExhausted || s.binding.Full()
}

// Reset drops every lease and clears any fault mode, as a power cycle
// would; an exclusive pool then allocates in virgin order again.
// Responses already scheduled still fire; the AP layer gates them.
func (s *Server) Reset() {
	s.binding.Reset()
	s.fault = FaultNone
	s.sweepTimer.Stop()
}

// ttl returns the enforced lease duration (0 when expiry is off).
func (s *Server) ttl() sim.Time {
	if !s.cfg.ExpireLeases {
		return 0
	}
	return sim.Time(s.cfg.LeaseSecs) * sim.Time(time.Second)
}

// armSweep (re)schedules the expiry sweep at the binding's earliest
// pending lease deadline. One event exists at a time, always at the
// earliest deadline, so expiry is exact and the queue drains when no
// lease is pending — no polling ticker.
func (s *Server) armSweep() {
	next := s.binding.NextExpiry()
	if next == 0 {
		s.sweepTimer.Stop()
		return
	}
	if s.sweepTimer.Armed() && s.sweepTimer.At() <= next {
		return
	}
	s.sweepTimer.ResetAt(next)
}

// sweep reclaims every expired lease, then re-arms for the next deadline.
func (s *Server) sweep() {
	s.Reclaimed += len(s.binding.SweepExpired(s.eng.Now()))
	s.armSweep()
}

// nak builds the typed refusal for msg.
func (s *Server) nak(msg Message) Message {
	s.Naks++
	return Message{Type: Nak, XID: msg.XID, ClientMAC: msg.ClientMAC, ServerIP: s.cfg.Gateway}
}

// Handle processes one client message and, after the sampled processing
// delay, invokes reply with the response. Unknown or out-of-order messages
// are ignored, as a real server would silently drop them.
func (s *Server) Handle(msg Message, reply func(Message)) {
	if s.fault == FaultSilent && (msg.Type == Discover || msg.Type == Request) {
		s.FaultDrops++
		return
	}
	now := s.eng.Now()
	var resp Message
	switch msg.Type {
	case Discover:
		if s.fault == FaultNak {
			resp = s.nak(msg)
			break
		}
		if s.fault == FaultExhausted && !s.binding.HasLease(msg.ClientMAC) {
			s.PoolExhausted++
			return // behaves exhausted: silence, client times out
		}
		ip, err := s.binding.Allocate(now, msg.ClientMAC, s.ttl())
		if err != nil {
			s.PoolExhausted++
			return // pool exhausted: silence, client times out
		}
		s.armSweep()
		s.Offers++
		resp = Message{Type: Offer, XID: msg.XID, ClientMAC: msg.ClientMAC,
			YourIP: ip, ServerIP: s.cfg.Gateway, LeaseSecs: s.cfg.LeaseSecs}
	case Request:
		if s.fault == FaultNak {
			resp = s.nak(msg)
			break
		}
		if s.fault == FaultExhausted && !s.binding.HasLease(msg.ClientMAC) {
			// Typed exhaustion: refuse the Request outright so the client
			// fails fast instead of timing out.
			s.PoolExhausted++
			resp = s.nak(msg)
			break
		}
		ip, err := s.binding.AllocateSpecific(now, msg.ClientMAC, msg.YourIP, s.ttl())
		if err != nil {
			// The requested address did not validate against the live
			// pool (AllocateSpecific's only error is ErrConflict):
			// reclaimed and re-issued to someone else, stale from a
			// different visit, or outside this AP's hierarchy. NAK so the
			// client restarts with Discover instead of riding a lease the
			// server no longer stands behind.
			s.Conflicts++
			resp = s.nak(msg)
			break
		}
		s.armSweep()
		s.Acks++
		resp = Message{Type: Ack, XID: msg.XID, ClientMAC: msg.ClientMAC,
			YourIP: ip, ServerIP: s.cfg.Gateway, LeaseSecs: s.cfg.LeaseSecs}
	default:
		return
	}
	delay := s.rng.UniformDuration(s.cfg.RespDelayMin, s.cfg.RespDelayMax+1)
	s.eng.Schedule(delay, func() { reply(resp) })
}
