package driver

import (
	"fmt"

	"spider/internal/dot11"
	"spider/internal/ipnet"
	"spider/internal/obs"
	"spider/internal/sim"
)

type vifState uint8

const (
	vifIdle vifState = iota
	vifAuthWait
	vifAssocWait
	vifAssociated
)

// joinPhase names the link-layer join phase a VIF is in: the span child
// it has open, when the join is traced.
type joinPhase uint8

const (
	phaseNone joinPhase = iota
	phaseScan
	phaseProbe
	phaseAuth
	phaseAssoc
)

var phaseNames = [...]string{phaseScan: "scan", phaseProbe: "probe", phaseAuth: "auth", phaseAssoc: "assoc"}

// VIF is one virtual interface — the driver-level analogue of the per-AP
// Linux network device Spider exposes. Each VIF binds to at most one AP and
// carries an independent link-layer join state machine. Every client has
// one per interface, so the small fields are packed.
type VIF struct {
	drv *Driver

	id        int32
	state     vifState
	channel   dot11.Channel
	phaseKind joinPhase
	bssid     dot11.MACAddr

	deadline sim.Time
	timer    sim.Timer // the auth/assoc retransmission deadline

	// OnJoinResult reports the outcome of Associate: true once the
	// four-way handshake completes, false on window expiry or rejection.
	OnJoinResult func(ok bool)
	// OnPacket receives the IP packets addressed to this interface.
	OnPacket func(ipnet.Packet)
	// Span, when non-nil, is the Join root span this attempt's link-layer
	// phases nest under (set by the LMM before Associate). The VIF opens
	// contiguous children — scan (waiting for the radio), probe (dwell to
	// first frame), auth, assoc — so phase durations sum to the handshake
	// exactly.
	Span *obs.ActiveSpan

	phase *obs.ActiveSpan

	// Stats.
	AuthAttempts  int
	AssocAttempts int
}

// ID returns the interface index.
func (v *VIF) ID() int { return int(v.id) }

// Associated reports whether the four-way handshake has completed.
func (v *VIF) Associated() bool { return v.state == vifAssociated }

// Joining reports whether a link-layer join is in progress.
func (v *VIF) Joining() bool { return v.state == vifAuthWait || v.state == vifAssocWait }

// BSSID returns the bound AP, or the zero address when idle.
func (v *VIF) BSSID() dot11.MACAddr {
	if v.state == vifIdle {
		return dot11.MACAddr{}
	}
	return v.bssid
}

// Channel returns the channel of the bound AP.
func (v *VIF) Channel() dot11.Channel { return v.channel }

// Associate starts the link-layer join (auth + assoc) to an AP on the given
// channel. The channel need not be the radio's current one: handshake
// frames transmit only while the radio dwells there, exactly the
// fractional-time dynamic the paper models. Panics if the VIF is busy.
func (v *VIF) Associate(bssid dot11.MACAddr, ch dot11.Channel) {
	if v.state != vifIdle {
		panic(fmt.Sprintf("driver: Associate on busy vif %d", v.id))
	}
	if !ch.Valid() {
		panic("driver: Associate with invalid channel")
	}
	v.state = vifAuthWait
	v.bssid = bssid
	v.channel = ch
	v.deadline = v.drv.eng.Now() + joinWindow
	v.startPhase(phaseScan)
	v.sendAuth()
}

// startPhase closes the open join phase and opens the next at the same
// instant, keeping the phase children contiguous under the root span.
func (v *VIF) startPhase(p joinPhase) {
	now := v.drv.eng.Now()
	v.phase.EndStatus(now, "ok")
	v.phase = v.Span.StartChild(now, phaseNames[p])
	if v.phase != nil {
		v.phase.SetBSSID(v.bssid.String())
		v.phase.SetChannel(int(v.channel))
	}
	v.phaseKind = p
}

// onChannelArrive notes the radio settling on this joining VIF's channel:
// the scan wait is over and the probe-to-first-frame dwell begins.
func (v *VIF) onChannelArrive() {
	if v.phaseKind == phaseScan {
		v.startPhase(phaseProbe)
	}
}

// Disassociate releases the binding, notifying the AP when reachable.
func (v *VIF) Disassociate() {
	if v.state == vifIdle {
		return
	}
	if v.state == vifAssociated && v.drv.radio.Channel() == v.channel && !v.drv.switching {
		v.drv.radio.Send(dot11.Frame{
			Type:  dot11.TypeDeauth,
			Addr1: v.bssid,
			Addr3: v.bssid,
			Seq:   v.drv.radio.NextSeq(),
		}, nil)
	}
	v.reset()
}

func (v *VIF) reset() {
	v.timer.Stop()
	// An abandoned handshake closes its open phase here; completed joins
	// already closed theirs, so this End is the idempotent no-op.
	v.phase.EndStatus(v.drv.eng.Now(), "aborted")
	v.phase, v.phaseKind = nil, phaseNone
	v.Span = nil
	v.state = vifIdle
	v.bssid = dot11.MACAddr{}
	v.channel = 0
}

func (v *VIF) armTimer() { v.timer.Reset(v.drv.cfg.LLTimeout) }

// vifTimeout is a VIF as its timer's Runnable: binding the VIF itself,
// not a method value, keeps a closure per interface off the heap.
type vifTimeout VIF

func (t *vifTimeout) RunEvent() { (*VIF)(t).onTimeout() }

func (v *VIF) onTimeout() {
	switch v.state {
	case vifAuthWait:
		if v.drv.eng.Now() >= v.deadline {
			v.fail()
			return
		}
		v.sendAuth()
	case vifAssocWait:
		if v.drv.eng.Now() >= v.deadline {
			v.fail()
			return
		}
		v.sendAssoc()
	}
}

func (v *VIF) fail() {
	v.phase.EndStatus(v.drv.eng.Now(), "fail")
	cb := v.OnJoinResult
	v.reset()
	if cb != nil {
		cb(false)
	}
}

// sendAuth transmits an authentication request if the radio is on the AP's
// channel; either way the retransmission timer is armed, so attempts recur
// every LLTimeout while the join window lasts.
func (v *VIF) sendAuth() {
	if v.drv.radio.Channel() == v.channel && !v.drv.switching {
		v.AuthAttempts++
		if v.phaseKind == phaseScan || v.phaseKind == phaseProbe {
			// First frame on air ends the pre-handshake wait.
			v.startPhase(phaseAuth)
		}
		// Record only real transmissions, not timer re-arms while the
		// radio dwells elsewhere — the timeline shows frames on air. The
		// chatty guard keeps a log that records no chatty kinds from
		// rendering the BSSID.
		if v.drv.evChatty {
			v.drv.events.Emit(obs.Event{
				At:      v.drv.eng.Now(),
				Kind:    obs.KindAuth,
				BSSID:   v.bssid.String(),
				Channel: int(v.channel),
				Value:   int64(v.AuthAttempts),
			})
		}
		body := dot11.AuthBody{SeqNum: 1}
		v.drv.radio.Send(dot11.Frame{
			Type:  dot11.TypeAuth,
			Addr1: v.bssid,
			Addr3: v.bssid,
			Seq:   v.drv.radio.NextSeq(),
			Body:  body.AppendTo(nil),
		}, nil)
	}
	v.armTimer()
}

func (v *VIF) sendAssoc() {
	if v.drv.radio.Channel() == v.channel && !v.drv.switching {
		v.AssocAttempts++
		if v.drv.evChatty {
			v.drv.events.Emit(obs.Event{
				At:      v.drv.eng.Now(),
				Kind:    obs.KindAssoc,
				BSSID:   v.bssid.String(),
				Channel: int(v.channel),
				Value:   int64(v.AssocAttempts),
			})
		}
		v.drv.radio.Send(dot11.Frame{
			Type:  dot11.TypeAssocReq,
			Addr1: v.bssid,
			Addr3: v.bssid,
			Seq:   v.drv.radio.NextSeq(),
		}, nil)
	}
	v.armTimer()
}

// onMgmt handles auth/assoc responses from the bound AP.
func (v *VIF) onMgmt(f *dot11.Frame) {
	switch {
	case f.Type == dot11.TypeAuthResp && v.state == vifAuthWait:
		body, err := dot11.DecodeAuthBody(f.Body)
		if err != nil {
			return
		}
		if body.Status != 0 {
			v.fail()
			return
		}
		v.state = vifAssocWait
		v.startPhase(phaseAssoc)
		v.sendAssoc()
	case f.Type == dot11.TypeAssocResp && v.state == vifAssocWait:
		body, err := dot11.DecodeAssocRespBody(f.Body)
		if err != nil {
			return
		}
		if body.Status != 0 {
			v.fail()
			return
		}
		v.timer.Stop()
		v.state = vifAssociated
		v.phase.EndStatus(v.drv.eng.Now(), "ok")
		v.phase, v.phaseKind = nil, phaseNone
		v.Span = nil // link-layer phases done; DHCP children follow
		if v.OnJoinResult != nil {
			v.OnJoinResult(true)
		}
	}
}

// SendPacket transmits an IP packet to the bound AP, buffering it in the
// per-channel queue while the radio is elsewhere. Packets on idle VIFs are
// dropped.
func (v *VIF) SendPacket(p ipnet.Packet) {
	if v.state != vifAssociated {
		return
	}
	v.drv.sendOrQueue(v.channel, dot11.Frame{
		Type:   dot11.TypeData,
		Addr1:  v.bssid,
		Addr3:  v.bssid,
		Seq:    v.drv.radio.NextSeq(),
		Packet: p,
	})
}
