// Package relay implements a managed-overlay relay node: a UDP forwarder
// that pops the next hop off each frame's source route and sends it onward
// (bounce = one relay, transit = ingress relay → backbone → egress relay).
// Relays keep per-session byte accounting — the managed network's operators
// need it for budgeting — but, as in the paper, have no measurement or
// selection intelligence of their own: all smarts live in the controller
// and clients (§4.4: "the relays in Skype were only designed to forward
// traffic").
//
// A datagram's source and next hop travel as netip.AddrPort values, from
// the socket read to the send: a relay on a *net.UDPConn or a wan.Shaper
// forwards without allocating. A conn without their value-address
// methods is served through one adapter, addrport.Adapt, on the same
// forwarding loop.
package relay

import (
	"errors"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addrport"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Session-table bounds: calls end silently (a relay never sees teardown),
// so entries are evicted once idle for sessionIdleTTL, swept opportunistically
// every sweepEvery handled packets. maxSessions is a hard cap — a flood of
// fresh session ids (bug or abuse) evicts the longest-idle entries rather
// than growing the map without bound.
const (
	sessionIdleTTL = 2 * time.Minute
	maxSessions    = 8192
	sweepEvery     = 1024
)

// Node is one relay.
type Node struct {
	id   netsim.RelayID
	conn addrport.Conn

	packets atomic.Int64
	bytes   atomic.Int64
	dropped atomic.Int64
	evicted atomic.Int64

	// Mobility counters (DESIGN.md §17): path validation, session
	// migration, keepalives, and drain progress.
	keepalives    atomic.Int64
	challenges    atomic.Int64
	pathOK        atomic.Int64
	pathFail      atomic.Int64
	migrations    atomic.Int64
	drainNudges   atomic.Int64
	drainRejected atomic.Int64

	// draining, once set, rejects frames for unknown sessions and nudges
	// active endpoints toward their backup relay. Checked lock-free on
	// the per-packet path.
	draining atomic.Bool

	mu         sync.Mutex
	sessions   map[uint64]*session // guarded by mu
	rng        *stats.RNG          // guarded by mu
	sinceSweep int                 // guarded by mu
	idleTTL    time.Duration       // guarded by mu
	maxSess    int                 // guarded by mu
	closed     bool                // guarded by mu
}

// SessionStats is the per-session accounting a relay keeps.
type SessionStats struct {
	Packets int64
	Bytes   int64
}

// session is one row of the relay's only table: the accounting, the
// liveness stamp eviction keys on, and the mobility state (mobility.go) of
// the call's two endpoints. Caller and callee each mint one token per call,
// so two inline records are all a call uses; a third distinct token on a
// known session is forwarded and accounted like any frame but binds
// nothing — it is never challenged, nudged or re-pinned.
type session struct {
	SessionStats
	lastSeen time.Time
	ends     [2]endpoint
}

// New builds a relay node on an already-bound PacketConn (which may be a
// wan.Shaper for impaired testbeds). A conn without the value-address
// methods of *net.UDPConn is adapted (addrport.Adapt); it forwards the
// same, at the cost of its own ReadFrom.
func New(id netsim.RelayID, conn net.PacketConn) *Node {
	return &Node{
		id:       id,
		conn:     addrport.Adapt(conn),
		sessions: make(map[uint64]*session),
		// Challenge nonces only need to be unpredictable to an off-path
		// attacker (the 128-bit token is the real secret); a time-seeded
		// PRNG suffices and keeps the package dependency-free. Relay is a
		// live-network package, so reading the clock here is legal.
		rng:     stats.NewRNG(uint64(time.Now().UnixNano()) ^ uint64(id)<<32),
		idleTTL: sessionIdleTTL,
		maxSess: maxSessions,
	}
}

// ID returns the relay's identity.
func (n *Node) ID() netsim.RelayID { return n.id }

// Addr returns the relay's bound media address.
func (n *Node) Addr() net.Addr { return n.conn.LocalAddr() }

// Serve forwards frames until the connection is closed. It returns nil on
// orderly shutdown. The frame and output buffer are hoisted out of the
// loop, and a datagram's source and next hop travel as netip.AddrPort
// values, so the steady-state forwarding path — including repair traffic
// (repair bytes, NACK/FEC kinds, retransmits) — performs zero heap
// allocations per packet on a *net.UDPConn or a wan.Shaper.
func (n *Node) Serve() error {
	buf := make([]byte, 64*1024)
	out := make([]byte, 0, 64*1024)
	var f transport.Frame
	for {
		sz, src, err := n.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		n.handle(buf[:sz], src, &out, &f)
	}
}

// handle is the per-datagram step: one datagram read from src is
// consumed, dropped, or forwarded to its next hop. The source is unmapped
// first, so an IPv4 peer read on a dual-stack socket compares equal to the
// IPv4 hops that routes carry.
//
//via:noalloc
func (n *Node) handle(pkt []byte, src netip.AddrPort, out *[]byte, f *transport.Frame) {
	src = netip.AddrPortFrom(src.Addr().Unmap(), src.Port())
	if err := f.Unmarshal(pkt); err != nil {
		n.dropped.Add(1)
		return
	}
	if len(f.Route) == 0 {
		// An exhausted route at a relay is either a mobility frame
		// addressed to this relay itself (keepalive, path response) or a
		// misrouted data frame; consume sorts them out off the hot path.
		n.consume(f, src, len(pkt))
		return
	}
	hop := f.Route[0]
	f.PopHop()

	now := time.Now()
	n.mu.Lock()
	ss, act := n.touchLocked(f, src, len(pkt), now)
	if ss == nil {
		n.mu.Unlock()
		n.dropped.Add(1)
		return
	}
	ss.Packets++
	if len(f.Route) == 0 {
		// Final delivery hop: follow any validated migration so reverse
		// traffic reaches the endpoint's current address even before the
		// peer learns the new reply route.
		hop = ss.repin(hop)
	}
	n.sinceSweep++
	if n.sinceSweep >= sweepEvery {
		n.sinceSweep = 0
		n.sweepIdleLocked(now)
	}
	n.mu.Unlock()

	n.packets.Add(1)
	n.bytes.Add(int64(len(pkt)))
	*out = f.Marshal((*out)[:0])
	//vialint:ignore errwrap best-effort UDP forwarding: a failed send is equivalent to loss, which the media layer absorbs
	_, _ = n.conn.WriteToUDPAddrPort(*out, hop.AddrPort())

	if act.challenge || act.nudge {
		n.sendMobility(f.Session, f.Token, src, act)
	}
}

// touchLocked is what every frame that names a session does to the table,
// forwarded or consumed: find the row or create it (a draining relay
// creates none — the controller has stopped advertising it, so anything
// unknown is a straggler that should land on another relay — and nil comes
// back), charge size bytes, refresh the idle deadline, and run the token's
// mobility observation. The once-per-session allocation lives here, off
// handle's per-packet path. Caller holds n.mu.
func (n *Node) touchLocked(f *transport.Frame, src netip.AddrPort, size int, now time.Time) (*session, mobilityActions) {
	draining := n.draining.Load()
	ss := n.sessions[f.Session]
	if ss == nil {
		if draining {
			n.drainRejected.Add(1)
			return nil, mobilityActions{}
		}
		if len(n.sessions) >= n.maxSess {
			n.evictOldestLocked(now)
		}
		ss = &session{}
		n.sessions[f.Session] = ss
	}
	ss.Bytes += int64(size)
	ss.lastSeen = now
	var act mobilityActions
	if !f.Token.IsZero() {
		act = n.observeLocked(ss, f.Token, src, now, draining)
	}
	return ss, act
}

// sweepIdleLocked drops sessions idle past the TTL, and with each its
// bindings, pending challenge and moved-from addresses. Caller holds n.mu.
func (n *Node) sweepIdleLocked(now time.Time) {
	for id, ss := range n.sessions {
		if now.Sub(ss.lastSeen) > n.idleTTL {
			delete(n.sessions, id)
			n.evicted.Add(1)
		}
	}
}

// evictOldestLocked makes room at the hard cap: first an idle sweep, then
// (if the table is full of live sessions) the longest-idle entry goes.
// Caller holds n.mu.
func (n *Node) evictOldestLocked(now time.Time) {
	n.sweepIdleLocked(now)
	if len(n.sessions) < n.maxSess {
		return
	}
	var oldest uint64
	var oldestSeen time.Time
	first := true
	for id, ss := range n.sessions {
		if first || ss.lastSeen.Before(oldestSeen) {
			oldest, oldestSeen, first = id, ss.lastSeen, false
		}
	}
	if !first {
		delete(n.sessions, oldest)
		n.evicted.Add(1)
	}
}

// Evicted returns how many session entries have been evicted (idle TTL or
// table cap) — accounting lost to churn, not forwarding failures.
func (n *Node) Evicted() int64 { return n.evicted.Load() }

// Close shuts the relay down; Serve returns after Close.
func (n *Node) Close() error {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	return n.conn.Close()
}

// Stats returns totals since start.
func (n *Node) Stats() (packets, bytes, dropped int64) {
	return n.packets.Load(), n.bytes.Load(), n.dropped.Load()
}

// Sessions returns the number of distinct sessions seen.
func (n *Node) Sessions() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.sessions)
}

// RegisterMetrics publishes the relay's counters on a shared registry as
// per-relay labeled series, read lazily at scrape time. GaugeFunc replace
// semantics make re-registering a revived relay under the same id safe —
// the fresh node's closures displace the dead one's.
func (n *Node) RegisterMetrics(reg *obs.Registry) {
	id := strconv.Itoa(int(n.id))
	reg.GaugeFunc(obs.L("via_relay_forwarded_packets", "relay", id),
		func() float64 { return float64(n.packets.Load()) })
	reg.GaugeFunc(obs.L("via_relay_forwarded_bytes", "relay", id),
		func() float64 { return float64(n.bytes.Load()) })
	reg.GaugeFunc(obs.L("via_relay_dropped_packets", "relay", id),
		func() float64 { return float64(n.dropped.Load()) })
	reg.GaugeFunc(obs.L("via_relay_evicted_sessions", "relay", id),
		func() float64 { return float64(n.Evicted()) })
	reg.GaugeFunc(obs.L("via_relay_active_sessions", "relay", id),
		func() float64 { return float64(n.Sessions()) })
	reg.CounterFunc(obs.L("via_session_migrations_total", "relay", id),
		func() int64 { return n.migrations.Load() })
	reg.CounterFunc(obs.L("via_path_validation_challenges_total", "relay", id),
		func() int64 { return n.challenges.Load() })
	reg.CounterFunc(obs.L("via_path_validation_successes_total", "relay", id),
		func() int64 { return n.pathOK.Load() })
	reg.CounterFunc(obs.L("via_path_validation_failures_total", "relay", id),
		func() int64 { return n.pathFail.Load() })
	reg.CounterFunc(obs.L("via_relay_keepalives_total", "relay", id),
		func() int64 { return n.keepalives.Load() })
	reg.CounterFunc(obs.L("via_relay_drain_nudges_total", "relay", id),
		func() int64 { return n.drainNudges.Load() })
	reg.CounterFunc(obs.L("via_relay_drain_rejected_total", "relay", id),
		func() int64 { return n.drainRejected.Load() })
}
