// Mid-call mobility, agent side (DESIGN.md §17): transport rebinding, the
// session-token plumbing, relay keepalives, and the endpoint half of path
// validation. The relay side lives in internal/relay/mobility.go.
//
// The agent's job in a NAT rebind is deliberately small: swap the socket,
// re-derive the routes that embed its own address, and answer the relay's
// path challenge from the new source. Everything stateful — which address
// reverse traffic goes to, whether the new source is genuine — is decided
// at the relay, keyed by the call's session token rather than the source
// address. The callee never learns the caller moved.
package client

import (
	"errors"
	"net"

	"repro/internal/transport"
)

// ErrClosed reports a Rebind against an agent that has been closed.
var ErrClosed = errors.New("client: agent closed")

// Rebind swaps the agent's transport for a new one mid-flight, simulating
// a NAT rebind or interface handover: the old conn is closed (its read
// loop retires), a fresh read loop starts on the new conn, and every
// in-flight call notices the generation bump and re-derives the routes
// that embed the agent's own address. Calls carrying a session token —
// every call an agent places — survive: their relays re-validate the new
// source and re-pin the return path.
func (a *Agent) Rebind(conn net.PacketConn) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		conn.Close() //vialint:ignore errwrap refusing the rebind; the caller keeps the original error
		return ErrClosed
	}
	old := a.pc()
	a.connV.Store(connHolder{c: conn})
	a.mu.Unlock()
	a.rebindGen.Add(1)
	a.rebinds.Add(1)
	a.wg.Add(1)
	go a.readLoop(conn)
	// Closing the old conn retires its read loop; sends that raced the
	// swap surface a closed-conn error the call loops already tolerate.
	return old.Close()
}

// newToken mints a nonzero session token from the agent's RNG.
func (a *Agent) newToken() transport.Token {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.newTokenLocked()
}

// newTokenLocked is newToken with a.mu already held (the RNG is guarded
// by a.mu).
func (a *Agent) newTokenLocked() transport.Token {
	var t transport.Token
	for t.IsZero() {
		for i := 0; i < transport.TokenLen; i += 8 {
			v := a.rng.Uint64()
			for j := 0; j < 8; j++ {
				t[i+j] = byte(v >> (8 * j))
			}
		}
	}
	return t
}

// sendKeepalive refreshes the call's session at every relay on the path:
// a token-bearing frame routed along the relay chain only (the final peer
// hop is dropped, so the last relay consumes it — the peer never sees
// keepalives). Each relay on the chain resets the session's idle TTL and,
// after a rebind, sees the new source address on a token it knows, which
// triggers path validation immediately. A direct call has no relay
// session to refresh; this is a no-op for it.
func (a *Agent) sendKeepalive(session uint64, tok transport.Token, rs *routeSet) {
	if len(rs.route) == 0 {
		return
	}
	var f transport.Frame
	f.Session = session
	f.Kind = transport.KindKeepalive
	f.Token = tok
	if err := f.SetRoute(rs.route[:len(rs.route)-1]); err != nil {
		return
	}
	//vialint:ignore errwrap best-effort keepalive: media traffic refreshes the same state; the next tick retries
	_, _ = a.pc().WriteTo(f.Marshal(nil), rs.sendTo)
	a.keepalivesSent.Add(1)
}

// handlePathChallenge answers a relay's path validation probe: echo the
// challenge payload bit-exactly, from our current source address, under
// the same token. Only the true owner of the new address receives the
// challenge (the relay sends it nowhere else), so the echo proves the
// migration is genuine (RFC 9000 §8.2 logic; see transport/path.go).
func (a *Agent) handlePathChallenge(f *transport.Frame, src net.Addr) {
	if len(f.Payload) != transport.PathChallengeLen || f.Token.IsZero() {
		return
	}
	var out transport.Frame
	out.Session = f.Session
	out.Kind = transport.KindPathResponse
	out.Token = f.Token
	out.Payload = append([]byte(nil), f.Payload...)
	//vialint:ignore errwrap best-effort response: the relay re-challenges on silence
	_, _ = a.pc().WriteTo(out.Marshal(nil), src)
	a.pathResponses.Add(1)
}

// handleDrain marks an outgoing call for in-place migration: a relay on
// its path is retiring and asked us to move to a backup. The media loop
// consumes the flag at its next tick. Nudges for sessions we do not
// originate (the callee side of a call) are ignored — the caller owns
// route selection, and its migrated media frames carry the new reply
// route to us.
func (a *Agent) handleDrain(f *transport.Frame) {
	a.mu.Lock()
	oc := a.outgoing[f.Session]
	a.mu.Unlock()
	if oc == nil {
		return
	}
	oc.mu.Lock()
	oc.drainNudge = true
	oc.mu.Unlock()
}
