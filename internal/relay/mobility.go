package relay

import (
	"net/netip"
	"time"

	"repro/internal/transport"
)

// Mid-call mobility (DESIGN.md §17). Every frame carries an opaque
// per-endpoint session token, so the relay can recognize "same call,
// new source address" when a NAT rebind or WiFi↔LTE handover changes an
// endpoint's 5-tuple mid-call. The first address a token appears from is
// trusted implicitly (it is the address the call was set up over, the
// moral equivalent of QUIC's handshake-validated path); every later
// address must answer a path challenge before the relay re-pins the
// return path to it. Until validation completes, traffic *from* the new
// address still forwards — sending media onward to a known destination
// amplifies nothing — but nothing is ever sent *to* an unvalidated
// address except the fixed-size challenge itself.
const (
	// pathChallengeResend spaces retransmits of an unanswered challenge.
	pathChallengeResend = 250 * time.Millisecond
	// pathChallengeMaxTries bounds one validation episode; exhausting it
	// counts a failure and the next frame from that address starts over.
	pathChallengeMaxTries = 5
	// drainNudgeEvery rate-limits per-endpoint drain nudges.
	drainNudgeEvery = time.Second
)

// maxMoved bounds the addresses an endpoint remembers having moved away
// from. Two kinds of stale address are ever written on a frame: the one the
// endpoint was first bound at — a caller addresses its callee by
// CallSpec.Peer for the whole call, however often the callee moves — and
// the last few before the current one, which a peer that has not yet read
// the newer reply route, or a packet already in flight, may still name. So
// slot 0 is never displaced and the rest hold the most recent moves.
const maxMoved = 4

// endpoint is one side of a call as this relay knows it: its token, the
// address validated for it, the challenge outstanding toward a new address
// (if any), and the addresses it has validated away from. The zero token
// marks a free slot.
type endpoint struct {
	token     transport.Token
	addr      transport.Addr // validated source address
	pending   pathPending    // tries == 0: no challenge outstanding
	lastNudge time.Time
	moved     [maxMoved]transport.Addr
	nMoved    int
}

// pathPending is one outstanding challenge episode toward a new address.
type pathPending struct {
	nonce  uint64
	addr   transport.Addr
	sentAt time.Time
	tries  int
}

// mobilityActions is what the locked fast path asks the cold path to
// send after the lock is released.
type mobilityActions struct {
	challenge bool
	nonce     uint64
	nudge     bool
}

// end returns the session's record for tok, or nil.
func (ss *session) end(tok transport.Token) *endpoint {
	for i := range ss.ends {
		if ss.ends[i].token == tok {
			return &ss.ends[i]
		}
	}
	return nil
}

// observeLocked runs a token-bearing frame from src against its session's
// endpoints and decides whether a path challenge or drain nudge is owed.
// Nothing here allocates, which keeps handle's noalloc promise. Caller
// holds n.mu.
func (n *Node) observeLocked(ss *session, tok transport.Token, src netip.AddrPort, now time.Time, draining bool) mobilityActions {
	var act mobilityActions
	k, ok := transport.AddrFromAddrPort(src)
	if !ok {
		return act
	}
	e := ss.end(tok)
	if e == nil {
		// First sighting: the call was set up over this path, trust it.
		if e = ss.end(transport.Token{}); e == nil {
			return act // both slots taken: a third token binds nothing
		}
		*e = endpoint{token: tok, addr: k}
	} else if e.addr != k {
		act = n.challengeLocked(e, k, now)
	}
	if draining && now.Sub(e.lastNudge) >= drainNudgeEvery {
		e.lastNudge = now
		act.nudge = true
	}
	return act
}

// challengeLocked runs the challenge state machine for a frame arriving
// from unvalidated address k. Caller holds n.mu.
func (n *Node) challengeLocked(e *endpoint, k transport.Addr, now time.Time) mobilityActions {
	var act mobilityActions
	p := &e.pending
	switch {
	case p.tries == 0 || p.addr != k:
		// New episode (or the endpoint moved again mid-validation: the
		// newest address wins, the stale episode is abandoned).
		*p = pathPending{nonce: n.rng.Uint64(), addr: k, sentAt: now, tries: 1}
	case now.Sub(p.sentAt) < pathChallengeResend:
		return act // recently challenged; wait for the response
	case p.tries >= pathChallengeMaxTries:
		// Episode exhausted: count one failure, let the next frame from
		// this address open a fresh episode.
		n.pathFail.Add(1)
		*p = pathPending{}
		return act
	default:
		p.sentAt = now
		p.tries++
	}
	act.challenge, act.nonce = true, p.nonce
	return act
}

// repin maps a final-delivery address that one of the session's endpoints
// has validated away from onto that endpoint's current address. Looking
// only in the frame's own session loses nothing against a relay-wide map
// of stale addresses: whoever still names a stale address is the other
// side of that call, and its frames carry the call's session id.
func (ss *session) repin(to transport.Addr) transport.Addr {
	for i := range ss.ends {
		e := &ss.ends[i]
		for _, old := range e.moved[:e.nMoved] {
			if old == to {
				return e.addr
			}
		}
	}
	return to
}

// movedFrom records old as an address the endpoint has left.
func (e *endpoint) movedFrom(old transport.Addr) {
	for _, m := range e.moved[:e.nMoved] {
		if m == old {
			return
		}
	}
	if e.nMoved == maxMoved {
		copy(e.moved[1:], e.moved[2:])
		e.nMoved--
	}
	e.moved[e.nMoved] = old
	e.nMoved++
}

// consume handles frames addressed to the relay itself (empty forward
// route): keepalives and path responses. Anything else with an exhausted
// route is misrouted, as before.
func (n *Node) consume(f *transport.Frame, src netip.AddrPort, size int) {
	switch f.Kind {
	case transport.KindKeepalive:
		n.handleKeepalive(f, src, size)
	case transport.KindPathResponse:
		n.handlePathResponse(f, src)
	default:
		n.dropped.Add(1)
	}
}

// handleKeepalive refreshes the session's idle deadline — a long silent
// but alive call must not be evicted — and runs the same token
// observation as data frames, so a keepalive from a rebound address
// starts path validation without waiting for media.
func (n *Node) handleKeepalive(f *transport.Frame, src netip.AddrPort, size int) {
	n.mu.Lock()
	ss, act := n.touchLocked(f, src, size, time.Now())
	n.mu.Unlock()
	if ss == nil {
		return
	}
	n.keepalives.Add(1)
	if act.challenge || act.nudge {
		n.sendMobility(f.Session, f.Token, src, act)
	}
}

// handlePathResponse validates an echoed challenge — it must match the
// outstanding (session, token, address, nonce) — and on success re-pins
// the endpoint's return path to the responding address.
func (n *Node) handlePathResponse(f *transport.Frame, src netip.AddrPort) {
	var c transport.PathChallenge
	k, ok := transport.AddrFromAddrPort(src)
	if err := c.Unmarshal(f.Payload); err != nil || c.Token != f.Token || f.Token.IsZero() || !ok {
		n.pathFail.Add(1)
		return
	}
	n.mu.Lock()
	var e *endpoint
	ss := n.sessions[f.Session]
	if ss != nil {
		e = ss.end(f.Token)
	}
	if e == nil || e.pending.tries == 0 || e.pending.addr != k || e.pending.nonce != c.Nonce {
		n.mu.Unlock()
		n.pathFail.Add(1)
		return
	}
	e.movedFrom(e.addr)
	e.addr = k
	e.pending = pathPending{}
	ss.lastSeen = time.Now()
	n.mu.Unlock()
	n.migrations.Add(1)
	n.pathOK.Add(1)
}

// sendMobility emits the challenge and/or drain nudge decided under the
// lock. Cold path: runs only on address change or during drain.
func (n *Node) sendMobility(session uint64, tok transport.Token, dst netip.AddrPort, act mobilityActions) {
	if act.challenge {
		c := transport.PathChallenge{Nonce: act.nonce, Token: tok}
		f := transport.Frame{Session: session, Kind: transport.KindPathChallenge, Token: tok}
		f.Payload = c.Marshal(make([]byte, 0, transport.PathChallengeLen))
		//vialint:ignore errwrap best-effort UDP: a lost challenge is retransmitted by the next frame from the new address
		_, _ = n.conn.WriteToUDPAddrPort(f.Marshal(nil), dst)
		n.challenges.Add(1)
	}
	if act.nudge {
		f := transport.Frame{Session: session, Kind: transport.KindDrain, Token: tok}
		//vialint:ignore errwrap best-effort UDP: drain nudges repeat once per drainNudgeEvery while traffic flows
		_, _ = n.conn.WriteToUDPAddrPort(f.Marshal(nil), dst)
		n.drainNudges.Add(1)
	}
}

// SetDraining switches drain mode. Entering drain immediately nudges
// every known endpoint toward its backup relay; endpoints that miss the
// nudge (loss) are re-nudged as their traffic flows. New sessions are
// rejected while draining; existing ones keep forwarding until they
// migrate or end.
func (n *Node) SetDraining(d bool) {
	n.draining.Store(d)
	if !d {
		return
	}
	now := time.Now()
	type target struct {
		session uint64
		tok     transport.Token
		addr    transport.Addr
	}
	var targets []target
	n.mu.Lock()
	for id, ss := range n.sessions {
		for i := range ss.ends {
			if e := &ss.ends[i]; !e.token.IsZero() {
				e.lastNudge = now
				targets = append(targets, target{id, e.token, e.addr})
			}
		}
	}
	n.mu.Unlock()
	for _, t := range targets {
		n.sendMobility(t.session, t.tok, t.addr.AddrPort(), mobilityActions{nudge: true})
	}
}

// Draining reports whether the relay is in drain mode (advertised to the
// controller via heartbeats).
func (n *Node) Draining() bool { return n.draining.Load() }

// Migrations returns how many validated session migrations (address
// re-pins) this relay has performed.
func (n *Node) Migrations() int64 { return n.migrations.Load() } //vialint:ignore deadexport asserted by the mobility and churn gates (DESIGN §9)
