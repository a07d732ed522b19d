// Package client implements the testbed call agent: the instrumented-Skype
// stand-in of §5.5. An agent plays both roles — caller (streams RTP-style
// media through the relaying option under test and collects RTT samples
// from echoed receiver reports) and callee (measures loss and RFC 3550
// jitter on arriving media and feeds them back through the reverse relay
// route). The resulting call-average metric triple is exactly what the
// production clients push to the controller.
package client

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/rtp"
	"repro/internal/stats"
	"repro/internal/transport"
)

// connHolder wraps the agent's PacketConn so atomic.Value always stores
// one concrete type. The conn is swapped wholesale by Rebind (NAT rebind
// / interface handover), so every send and the read loop must go through
// the holder rather than a plain field.
type connHolder struct{ c net.PacketConn }

// Agent is one endpoint.
type Agent struct {
	connV atomic.Value // connHolder; swapped by Rebind

	// rebindGen increments on every Rebind; the media loop notices the
	// change and re-derives routes that embed the agent's own address.
	rebindGen atomic.Int64

	mu       sync.Mutex
	relays   map[netsim.RelayID]*net.UDPAddr
	outgoing map[uint64]*outCall
	incoming map[uint64]*inCall
	closed   bool
	rng      *stats.RNG

	failovers atomic.Int64 // mid-call repaths across all calls

	// Mobility counters (DESIGN.md §17).
	rebinds         atomic.Int64 // Rebind calls performed
	keepalivesSent  atomic.Int64 // session keepalives emitted
	pathResponses   atomic.Int64 // relay path challenges answered
	drainMigrations atomic.Int64 // in-place migrations off draining relays

	// Loss-repair data-plane counters (see repair.go).
	nacksSent         atomic.Int64 // NACK seqs requested (receiver side)
	nacksHonored      atomic.Int64 // retransmits served (sender side)
	fecRecovered      atomic.Int64 // packets rebuilt from FEC parity
	redDuplicates     atomic.Int64 // redundant RED copies absorbed
	rtxDeadlineMisses atomic.Int64 // NACK entries expired unrepaired

	wg sync.WaitGroup
}

// Failovers returns how many mid-call repaths this agent has performed —
// nonzero means paths died under live calls and the agent recovered.
func (a *Agent) Failovers() int64 { return a.failovers.Load() }

// NacksSent returns how many sequence numbers this agent has NACKed.
func (a *Agent) NacksSent() int64 { return a.nacksSent.Load() }

// NacksHonored returns how many retransmit requests this agent served.
func (a *Agent) NacksHonored() int64 { return a.nacksHonored.Load() }

// FECRecovered returns how many packets were rebuilt from parity.
func (a *Agent) FECRecovered() int64 { return a.fecRecovered.Load() }

// REDDuplicates returns how many redundant RED copies were absorbed.
func (a *Agent) REDDuplicates() int64 { return a.redDuplicates.Load() }

// RtxDeadlineMisses returns how many NACK entries expired unrepaired.
func (a *Agent) RtxDeadlineMisses() int64 { return a.rtxDeadlineMisses.Load() }

// Rebinds returns how many times the agent's transport was rebound.
func (a *Agent) Rebinds() int64 { return a.rebinds.Load() }

// KeepalivesSent returns how many session keepalives the agent has sent.
func (a *Agent) KeepalivesSent() int64 { return a.keepalivesSent.Load() }

// PathResponses returns how many relay path challenges were answered.
func (a *Agent) PathResponses() int64 { return a.pathResponses.Load() }

// DrainMigrations returns how many calls migrated off a draining relay
// in place (not counted as failovers: the path was healthy, just
// retiring).
func (a *Agent) DrainMigrations() int64 { return a.drainMigrations.Load() }

// RegisterMetrics publishes the agent's failover and loss-repair counters
// on a shared registry, labeled per client.
func (a *Agent) RegisterMetrics(reg *obs.Registry, client string) {
	reg.GaugeFunc(obs.L("via_client_failovers", "client", client),
		func() float64 { return float64(a.Failovers()) })
	reg.GaugeFunc(obs.L("via_client_nacks_sent", "client", client),
		func() float64 { return float64(a.NacksSent()) })
	reg.GaugeFunc(obs.L("via_client_nacks_honored", "client", client),
		func() float64 { return float64(a.NacksHonored()) })
	reg.GaugeFunc(obs.L("via_client_fec_recoveries", "client", client),
		func() float64 { return float64(a.FECRecovered()) })
	reg.GaugeFunc(obs.L("via_client_red_duplicates", "client", client),
		func() float64 { return float64(a.REDDuplicates()) })
	reg.GaugeFunc(obs.L("via_client_rtx_deadline_misses", "client", client),
		func() float64 { return float64(a.RtxDeadlineMisses()) })
	reg.CounterFunc(obs.L("via_client_rebinds_total", "client", client),
		func() int64 { return a.Rebinds() })
	reg.CounterFunc(obs.L("via_client_keepalives_total", "client", client),
		func() int64 { return a.KeepalivesSent() })
	reg.CounterFunc(obs.L("via_client_path_responses_total", "client", client),
		func() int64 { return a.PathResponses() })
	reg.CounterFunc(obs.L("via_client_drain_migrations_total", "client", client),
		func() int64 { return a.DrainMigrations() })
}

// outCall is caller-side per-call state.
type outCall struct {
	mu       sync.Mutex
	flow     rtp.FlowStats
	lastRR   *rtp.ReceiverReport
	lastRRAt time.Time // arrival time of lastRR (failover liveness signal)

	// Sender-side repair state (rtx is nil when the call runs no repair).
	rtx    *rtp.RtxRing // sent wire frames, for NACK retransmits
	sendTo *net.UDPAddr // current first hop (retransmit target)

	// drainNudge is set by the read loop when a relay on the path asks the
	// call to migrate (KindDrain); the media loop consumes it and repaths
	// in place to the next failover candidate.
	drainNudge bool
}

// inCall is callee-side per-call state.
type inCall struct {
	// token is the callee's own session token, minted when the first
	// frame of a token-bearing call arrives and immutable afterwards. It
	// rides every reverse frame (reports, NACKs, return media) so the
	// relays can re-pin the callee's path independently of the caller's.
	token transport.Token

	mu        sync.Mutex
	flow      rtp.FlowStats
	reply     []*net.UDPAddr
	pkts      int64
	lastSend  int64 // SendNanos of most recent media packet
	lastArrNs int64 // its arrival time

	// Receiver-side repair state, built lazily from the first repair byte
	// seen on the session's frames (see repair.go).
	scheme  rtp.Scheme
	gap     *rtp.GapTracker
	nack    *rtp.NACKGenerator
	fecDec  *rtp.FECDecoder
	nackBuf []uint16
}

// rrEvery is how often (in media packets) the callee emits a report.
const rrEvery = 5

// ptMedia is the RTP payload type of the agent's media.
const ptMedia = 111

// New builds an agent on conn (typically a wan.Shaper) and starts its
// receive loop.
func New(conn net.PacketConn, seed uint64) *Agent {
	a := &Agent{
		relays:   make(map[netsim.RelayID]*net.UDPAddr),
		outgoing: make(map[uint64]*outCall),
		incoming: make(map[uint64]*inCall),
		rng:      stats.NewRNG(seed).Split("agent"),
	}
	a.connV.Store(connHolder{c: conn})
	a.wg.Add(1)
	go a.readLoop(conn)
	return a
}

// pc returns the agent's current transport. Sends load it fresh so a
// concurrent Rebind redirects the very next datagram.
func (a *Agent) pc() net.PacketConn { return a.connV.Load().(connHolder).c }

// Addr returns the agent's media address.
func (a *Agent) Addr() *net.UDPAddr { return a.pc().LocalAddr().(*net.UDPAddr) }

// SetRelays installs the relay directory (from the controller).
func (a *Agent) SetRelays(dir map[netsim.RelayID]string) error {
	m := make(map[netsim.RelayID]*net.UDPAddr, len(dir))
	for id, addr := range dir {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return fmt.Errorf("client: relay %d addr %q: %w", id, addr, err)
		}
		m[id] = ua
	}
	a.mu.Lock()
	a.relays = m
	a.mu.Unlock()
	return nil
}

// Close shuts the agent down.
func (a *Agent) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	a.mu.Unlock()
	err := a.pc().Close()
	a.wg.Wait()
	return err
}

// CallSpec describes one call to place.
type CallSpec struct {
	Peer     *net.UDPAddr
	Option   netsim.Option
	Duration time.Duration
	// PPS is the media packet rate (default 50 — 20ms frames).
	PPS int
	// PayloadBytes is the media payload size (default 160, G.711 20ms).
	PayloadBytes int
	// Failover lists fallback options tried in order when the active path
	// goes dead mid-call: receiver reports stop arriving for FailoverAfter
	// (§3.1 — the relays send heartbeats, but only end-to-end feedback
	// proves a *path* alive). The caller repaths without tearing the call
	// down; the abandoned option is recorded so its failure can be
	// reported to the controller.
	Failover []netsim.Option
	// FailoverAfter is the no-feedback deadline before repathing. The
	// default is four receiver-report intervals (rrEvery packets each),
	// floored at 250ms — several consecutive missing reports, not one
	// late one.
	FailoverAfter time.Duration
	// Repair selects the in-band loss-repair scheme for the call's media
	// (negotiated at setup: the scheme rides in every frame's repair byte
	// and the callee adopts it from the first frame). The zero value
	// (SchemeNone) runs no repair.
	Repair rtp.Scheme
	// Keepalive is how often the caller refreshes its session state at the
	// relays on the path: a token-bearing frame addressed to the relay
	// chain (consumed before the peer) that resets the relay idle TTL and
	// keeps NAT bindings warm. Zero means the 10s default; negative
	// disables. Keepalives ride only relayed calls — a direct call has no
	// relay session to refresh.
	Keepalive time.Duration
}

// CallOutcome is the result of a resilient call: the measured metrics,
// the option that was carrying media when the call ended, and every
// option abandoned mid-call. Failed options should be reported to the
// controller as dead (see DeadPathMetrics) so selection learns.
type CallOutcome struct {
	Metrics quality.Metrics
	Used    netsim.Option
	Failed  []netsim.Option
}

// DeadPathMetrics is the punitive measurement reported for a path that
// died mid-call: total loss and a pessimal RTT/jitter, so every metric's
// predictor learns to avoid the path (a zero RTT would read as *good* to
// an RTT-optimizing strategy).
func DeadPathMetrics() quality.Metrics {
	return quality.Metrics{RTTMs: 2000, LossRate: 1, JitterMs: 100}
}

// ErrNoFeedback reports a call that received no receiver reports — the
// path was completely dead.
var ErrNoFeedback = errors.New("client: no receiver reports (path dead?)")

// Call streams media to the peer through the given relaying option for the
// spec's duration and returns the measured call-average metrics.
func (a *Agent) Call(spec CallSpec) (quality.Metrics, error) {
	out, err := a.CallResilient(spec)
	return out.Metrics, err
}

// CallResilient streams media like Call, and additionally survives the
// active path dying mid-call: when receiver reports stop arriving for
// FailoverAfter, the caller repaths in place to the next resolvable
// option from spec.Failover (the media session, sequence space, and
// measurement state continue — the loss burst during the dead window
// stays in the call's metrics, exactly what the controller should learn).
// The outcome records the option that finished the call and every
// abandoned one.
func (a *Agent) CallResilient(spec CallSpec) (CallOutcome, error) {
	if spec.PPS <= 0 {
		spec.PPS = 50
	}
	if spec.PayloadBytes < 8 {
		spec.PayloadBytes = 160
	}
	if spec.Duration <= 0 {
		spec.Duration = time.Second
	}
	interval := time.Second / time.Duration(spec.PPS)
	if spec.FailoverAfter <= 0 {
		spec.FailoverAfter = 4 * rrEvery * interval
		if spec.FailoverAfter < 250*time.Millisecond {
			spec.FailoverAfter = 250 * time.Millisecond
		}
	}

	out := CallOutcome{Used: spec.Option}
	pending := append([]netsim.Option(nil), spec.Failover...)

	// nextOption pops the first pending candidate that differs from the
	// current option and whose relays resolve in the directory.
	nextOption := func(cur netsim.Option) (netsim.Option, *routeSet, bool) {
		for len(pending) > 0 {
			cand := pending[0]
			pending = pending[1:]
			if cand == cur {
				continue
			}
			if rs, err := a.routeSet(cand, spec.Peer); err == nil {
				return cand, rs, true
			}
			// Unresolvable (relay gone from the directory): dead too.
			out.Failed = append(out.Failed, cand)
		}
		return netsim.Option{}, nil, false
	}

	cur := spec.Option
	rs, err := a.routeSet(cur, spec.Peer)
	if err != nil {
		// The primary option is unusable before any media flows (its
		// relay vanished from the directory); fail over immediately.
		out.Failed = append(out.Failed, cur)
		var ok bool
		if cur, rs, ok = nextOption(cur); !ok {
			out.Used = spec.Option
			return out, err
		}
		a.failovers.Add(1)
		out.Used = cur
	}

	session := a.newSession()
	scheme := spec.Repair
	// Session token: lets relays identify this call's frames by
	// token rather than source address, so the call survives a mid-call
	// NAT rebind (DESIGN.md §17).
	tok := a.newToken()
	kaEvery := spec.Keepalive
	if kaEvery == 0 {
		kaEvery = 10 * time.Second
	}
	oc := &outCall{sendTo: rs.sendTo}
	if scheme != rtp.SchemeNone {
		oc.rtx = rtp.NewRtxRing(256)
	}
	var fecEnc *rtp.FECEncoder
	if scheme.IsFEC() {
		fecEnc = rtp.NewFECEncoder(scheme.FECGroup())
	}
	a.mu.Lock()
	a.outgoing[session] = oc
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.outgoing, session)
		a.mu.Unlock()
	}()

	// The media frame, and the parity frame that shares its addressing but
	// carries the XOR payload under its own kind (relays forward both
	// transparently); repath addresses them.
	f := transport.Frame{Session: session, Kind: transport.KindMedia, Repair: scheme.Byte(), Token: tok}
	pf := transport.Frame{Session: session, Kind: transport.KindFEC, Repair: scheme.Byte(), Token: tok}
	total := int(spec.Duration / interval)
	if total < 2 {
		total = 2
	}
	payload := make([]byte, spec.PayloadBytes)
	ssrc := uint32(session)
	buf := make([]byte, 0, 1500)

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	tsStep := uint32(rtp.ClockRate / spec.PPS)
	activated := time.Now() // when the current path started carrying media
	gen := a.rebindGen.Load()
	var lastKA time.Time
	// repath puts the call on route set nrs for option next — media and
	// parity addressing, the retransmit target NACK service uses — and
	// announces it to that relay chain with a keepalive, which restarts the
	// keepalive period. A changed option is a new path and gets a fresh
	// liveness window; the same option on new routes (a rebind) keeps the
	// one it has.
	repath := func(next netsim.Option, nrs *routeSet) error {
		for _, fr := range []*transport.Frame{&f, &pf} {
			if err := fr.SetRoute(nrs.route); err != nil {
				return err
			}
			if err := fr.SetReply(nrs.reply); err != nil {
				return err
			}
		}
		oc.mu.Lock()
		oc.sendTo = nrs.sendTo
		oc.mu.Unlock()
		if next != cur {
			cur, out.Used = next, next
			activated = time.Now()
		}
		rs = nrs
		a.sendKeepalive(session, tok, rs)
		lastKA = time.Now()
		return nil
	}
	// Address the frames, and prime the relay chain before media flows so
	// every relay on the path binds the token to our source address from
	// packet one.
	if err := repath(cur, rs); err != nil {
		return out, err
	}
	for i := 0; i < total; i++ {
		pkt := rtp.Packet{
			PayloadType: ptMedia,
			Seq:         uint16(i),
			Timestamp:   uint32(i) * tsStep,
			SSRC:        ssrc,
			Payload:     payload,
		}
		putNanos(payload, time.Now().UnixNano())
		f.Payload = pkt.Marshal(buf[:0])
		// The frame wraps the RTP packet; reuse buffers to avoid churn.
		wire := f.Marshal(nil)
		if _, err := a.pc().WriteTo(wire, rs.sendTo); err != nil {
			// A rebind racing this send closes the old conn under us; the
			// packet is one more loss in the handover burst, not a dead
			// call. Any other send error is fatal as before.
			if a.rebindGen.Load() == gen {
				return out, err
			}
		}
		if oc.rtx != nil {
			oc.mu.Lock()
			oc.rtx.Put(pkt.Seq, wire)
			oc.mu.Unlock()
		}
		switch {
		case scheme == rtp.SchemeRED:
			//vialint:ignore errwrap the redundant copy is best-effort by construction
			_, _ = a.pc().WriteTo(wire, rs.sendTo)
		case fecEnc != nil:
			if parity := fecEnc.Add(&pkt); parity != nil {
				pf.Payload = parity.Marshal(nil)
				//vialint:ignore errwrap parity is repair data; losing it degrades to plain forwarding
				_, _ = a.pc().WriteTo(pf.Marshal(nil), rs.sendTo)
			}
		}
		if i < total-1 {
			<-ticker.C
		}

		// Mobility: after a Rebind the reply routes embedded in our frames
		// still name the old address — re-derive them, and announce the new
		// source to the relay chain right away (the keepalive triggers path
		// validation without waiting for the next media packet). The relays
		// keep delivering reverse traffic to the old address until the
		// challenge completes; the token is what keeps the session alive
		// across the gap.
		if g := a.rebindGen.Load(); g != gen {
			gen = g
			nrs, err := a.routeSet(cur, spec.Peer)
			if err != nil {
				nrs = rs // relay gone from the directory: keep the routes we have
			}
			if err := repath(cur, nrs); err != nil {
				return out, err
			}
		}

		// Keepalive cadence: refresh relay session/NAT state on quiet-but-
		// alive paths (media itself also refreshes; this is the floor).
		if kaEvery > 0 && time.Since(lastKA) >= kaEvery {
			a.sendKeepalive(session, tok, rs)
			lastKA = time.Now()
		}

		// Drain migration: a relay on the path asked us to move (it is
		// retiring, not dead). Repath in place to the first resolvable
		// failover candidate — unlike failover this is not punitive, so the
		// old option is not recorded as failed and the failover counter
		// stays untouched. No candidate? Keep riding the drain grace.
		oc.mu.Lock()
		nudged := oc.drainNudge
		oc.drainNudge = false
		oc.mu.Unlock()
		if nudged {
			if next, nrs, ok := nextOption(cur); ok {
				if err := repath(next, nrs); err != nil {
					return out, err
				}
				a.drainMigrations.Add(1)
			}
		}

		// Liveness: the path is alive while receiver reports keep coming.
		// No report for FailoverAfter after the path activated (several
		// consecutive reports missing, not one late one) means the path
		// is dead — repath in place if a candidate remains.
		oc.mu.Lock()
		lastRRAt := oc.lastRRAt
		oc.mu.Unlock()
		progress := activated
		if lastRRAt.After(progress) {
			progress = lastRRAt
		}
		if time.Since(progress) > spec.FailoverAfter {
			next, nrs, ok := nextOption(cur)
			if !ok {
				continue // nothing left; ride the dead path out
			}
			out.Failed = append(out.Failed, cur)
			if err := repath(next, nrs); err != nil {
				return out, err
			}
			a.failovers.Add(1)
		}
	}

	// Wait for the last reports to come home. The path may be slow (high
	// one-way delay) or lossy, so poll: finish early once a report covers
	// the final packet, or once reports stop making progress.
	deadline := time.Now().Add(4*interval + 2500*time.Millisecond)
	var lastSeen uint32
	lastProgress := time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(40 * time.Millisecond)
		oc.mu.Lock()
		rr := oc.lastRR
		oc.mu.Unlock()
		if rr == nil {
			continue
		}
		if rr.HighestSeq >= uint32(total-1) {
			break
		}
		if rr.HighestSeq != lastSeen {
			lastSeen = rr.HighestSeq
			lastProgress = time.Now()
		} else if time.Since(lastProgress) > 500*time.Millisecond {
			break // tail packets lost; no more reports coming
		}
	}

	oc.mu.Lock()
	defer oc.mu.Unlock()
	if oc.lastRR == nil {
		return out, ErrNoFeedback
	}
	m := quality.Metrics{
		JitterMs: float64(oc.lastRR.JitterMicros) / 1000,
	}
	expected := uint64(oc.lastRR.HighestSeq) + 1
	if expected > 0 {
		lost := float64(oc.lastRR.CumLost)
		// Packets sent after the highest one the receiver saw are unknown,
		// not lost; rate over the receiver's observed span.
		m.LossRate = lost / float64(expected)
	}
	if fm := oc.flow.Metrics(); fm.RTTMs > 0 {
		m.RTTMs = fm.RTTMs
	}
	if m.LossRate > 1 {
		m.LossRate = 1
	}
	out.Metrics = m
	return out, nil
}

func putNanos(b []byte, v int64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * (7 - i)))
	}
}

func getNanos(b []byte) int64 {
	var v int64
	for i := 0; i < 8; i++ {
		v = v<<8 | int64(b[i])
	}
	return v
}

func (a *Agent) newSession() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		s := a.rng.Uint64()
		if s == 0 {
			continue
		}
		if _, busy := a.outgoing[s]; !busy {
			return s
		}
	}
}

// routeSet bundles the resolved addressing for one option so a mid-call
// failover can swap the whole path atomically.
type routeSet struct {
	sendTo *net.UDPAddr
	route  []*net.UDPAddr
	reply  []*net.UDPAddr
}

// routeSet resolves an option into a routeSet (see routes).
func (a *Agent) routeSet(opt netsim.Option, peer *net.UDPAddr) (*routeSet, error) {
	sendTo, route, reply, err := a.routes(opt, peer)
	if err != nil {
		return nil, err
	}
	return &routeSet{sendTo: sendTo, route: route, reply: reply}, nil
}

// routes derives the datagram target, forward route, and reply route for an
// option. The reply route is from the callee's perspective: element 0 is
// where the callee sends its datagrams, the rest become the frame route.
func (a *Agent) routes(opt netsim.Option, peer *net.UDPAddr) (sendTo *net.UDPAddr, route, reply []*net.UDPAddr, err error) {
	self := a.Addr()
	a.mu.Lock()
	defer a.mu.Unlock()
	relay := func(id netsim.RelayID) (*net.UDPAddr, error) {
		ra, ok := a.relays[id]
		if !ok {
			return nil, fmt.Errorf("client: relay %d not in directory", id)
		}
		return ra, nil
	}
	switch opt.Kind {
	case netsim.Direct:
		return peer, nil, []*net.UDPAddr{self}, nil
	case netsim.Bounce:
		r, e := relay(opt.R1)
		if e != nil {
			return nil, nil, nil, e
		}
		return r, []*net.UDPAddr{peer}, []*net.UDPAddr{r, self}, nil
	case netsim.Transit:
		r1, e := relay(opt.R1)
		if e != nil {
			return nil, nil, nil, e
		}
		r2, e := relay(opt.R2)
		if e != nil {
			return nil, nil, nil, e
		}
		return r1, []*net.UDPAddr{r2, peer}, []*net.UDPAddr{r2, r1, self}, nil
	default:
		return nil, nil, nil, fmt.Errorf("client: unknown option kind %v", opt.Kind)
	}
}

// readLoop dispatches incoming frames until its conn closes. Each Rebind
// starts a fresh loop on the new conn; closing the old conn retires the
// old loop, so exactly one loop is live per transport generation.
func (a *Agent) readLoop(conn net.PacketConn) {
	defer a.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, src, err := conn.ReadFrom(buf)
		if err != nil {
			return
		}
		var f transport.Frame
		if err := f.Unmarshal(buf[:n]); err != nil {
			continue
		}
		if len(f.Route) != 0 {
			continue // not at its final destination; misdelivered
		}
		switch f.Kind {
		case transport.KindMedia:
			a.handleMedia(&f)
		case transport.KindReport:
			a.handleReport(&f)
		case transport.KindNack:
			a.handleNack(&f)
		case transport.KindFEC:
			a.handleFEC(&f)
		case transport.KindPathChallenge:
			a.handlePathChallenge(&f, src)
		case transport.KindDrain:
			a.handleDrain(&f)
		}
	}
}

// maxIncoming bounds callee-side state growth from abandoned sessions.
const maxIncoming = 4096

// evictStalestLocked drops the incoming call whose media last arrived
// longest ago, sparing keep (the call just inserted, which has seen none
// yet): evicting a live call would reset its loss, NACK and FEC state
// mid-stream and make it mint a second token. Caller holds a.mu.
func (a *Agent) evictStalestLocked(keep uint64) {
	var stalest uint64
	oldest := int64(math.MaxInt64)
	for s, ic := range a.incoming {
		if s == keep {
			continue
		}
		ic.mu.Lock()
		last := ic.lastArrNs
		ic.mu.Unlock()
		if last < oldest {
			stalest, oldest = s, last
		}
	}
	delete(a.incoming, stalest)
}

// incomingFor returns the callee-side state of f's session, creating it
// on the session's first frame, whatever its kind (parity may outrun the
// first media frame).
func (a *Agent) incomingFor(f *transport.Frame) *inCall {
	a.mu.Lock()
	defer a.mu.Unlock()
	ic := a.incoming[f.Session]
	if ic == nil {
		ic = &inCall{}
		// A token-bearing caller gets a token-bearing callee: the callee
		// mints its own token (each endpoint's relay-adjacent hop tracks
		// its own mobility), fixed for the life of the call. Frames from
		// non-agent senders may carry no token; those calls stay tokenless.
		if !f.Token.IsZero() {
			ic.token = a.newTokenLocked()
		}
		a.incoming[f.Session] = ic
		if len(a.incoming) > maxIncoming {
			a.evictStalestLocked(f.Session)
		}
	}
	return ic
}

// handleMedia is the callee side: measure, and periodically report back.
func (a *Agent) handleMedia(f *transport.Frame) {
	var pkt rtp.Packet
	if err := pkt.Unmarshal(f.Payload); err != nil || len(pkt.Payload) < 8 {
		return
	}
	now := time.Now().UnixNano()

	ic := a.incomingFor(f)
	ic.mu.Lock()
	if ic.scheme == rtp.SchemeNone && f.Repair != 0 {
		ic.setupRepairLocked(rtp.SchemeFromByte(f.Repair))
	}
	arrival := ic.flow.ObservePacket(&pkt, now)
	if arrival == rtp.ArrivalDuplicate {
		// RED's second copy (or a retransmit racing its original): already
		// delivered, so it must not advance packet counts or trigger RRs.
		if ic.scheme == rtp.SchemeRED {
			ic.mu.Unlock()
			a.redDuplicates.Add(1)
			return
		}
		ic.mu.Unlock()
		return
	}
	if ic.nack != nil {
		ic.gap.Observe(pkt.Seq, func(miss uint16) { ic.nack.Missing(miss, now) })
		if arrival == rtp.ArrivalReordered {
			ic.nack.Recovered(pkt.Seq) // late original or honored retransmit
		}
	}
	if ic.fecDec != nil {
		if rec, ok := ic.fecDec.AddMedia(&pkt); ok {
			ic.flow.ObserveRecovered(rec.Seq)
			a.fecRecovered.Add(1)
		}
	}
	ic.pkts++
	ic.lastSend = getNanos(pkt.Payload)
	ic.lastArrNs = now
	if reply := f.ReplyAddrs(); len(reply) > 0 {
		ic.reply = reply
	}
	sendRR := ic.pkts%rrEvery == 0
	var rr rtp.ReceiverReport
	var replyRoute []*net.UDPAddr
	if sendRR && len(ic.reply) > 0 {
		rr = rtp.ReceiverReport{
			SSRC:          pkt.SSRC,
			CumLost:       uint32(ic.flow.Loss.Lost()),
			HighestSeq:    ic.flow.Loss.HighestExt(),
			JitterMicros:  ic.flow.Jitter.Micros(),
			LastSendNanos: ic.lastSend,
			DelayNanos:    time.Now().UnixNano() - ic.lastArrNs,
		}
		replyRoute = ic.reply
	}
	// NACK pass: collect overdue gaps for (re)request while the lock is
	// held, send after release. Runs on every packet, not just RR ticks —
	// retransmit deadlines are tighter than the report interval.
	var nackSeqs []uint16
	if ic.nack != nil && len(ic.reply) > 0 {
		if ic.nackBuf == nil {
			ic.nackBuf = make([]uint16, 0, rtp.MaxNACKSeqs)
		}
		due, expired := ic.nack.Due(now, ic.nackBuf[:0])
		ic.nackBuf = due[:0]
		if expired > 0 {
			a.rtxDeadlineMisses.Add(int64(expired))
		}
		if len(due) > 0 {
			nackSeqs = append([]uint16(nil), due...)
			if replyRoute == nil {
				replyRoute = ic.reply
			}
		}
	}
	ic.mu.Unlock()

	if sendRR && replyRoute != nil {
		var out transport.Frame
		out.Session = f.Session
		out.Kind = transport.KindReport
		out.Token = ic.token
		if err := out.SetRoute(replyRoute[1:]); err != nil {
			return
		}
		out.Payload = rr.Marshal(nil)
		//vialint:ignore errwrap best-effort receiver report: a lost RR is one missing sample, repaired by the next interval
		_, _ = a.pc().WriteTo(out.Marshal(nil), replyRoute[0])
	}
	if len(nackSeqs) > 0 {
		a.sendNack(f.Session, pkt.SSRC, nackSeqs, replyRoute, ic.token)
	}
}

// handleReport is the caller side: fold the report in, sample RTT.
func (a *Agent) handleReport(f *transport.Frame) {
	var rr rtp.ReceiverReport
	if err := rr.Unmarshal(f.Payload); err != nil {
		return
	}
	a.mu.Lock()
	oc := a.outgoing[f.Session]
	a.mu.Unlock()
	if oc == nil {
		return
	}
	rttNanos := time.Now().UnixNano() - rr.LastSendNanos - rr.DelayNanos
	oc.mu.Lock()
	oc.flow.ObserveRTT(rttNanos)
	cp := rr
	oc.lastRR = &cp
	oc.lastRRAt = time.Now()
	oc.mu.Unlock()
}
