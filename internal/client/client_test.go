package client

import (
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/rtp"
	"repro/internal/transport"
	"repro/internal/wan"
)

func udpConn(t *testing.T) net.PacketConn {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newAgent(t *testing.T, group int32, seed uint64) *Agent {
	t.Helper()
	a := New(group, udpConn(t), seed)
	t.Cleanup(func() { a.Close() })
	return a
}

func newShapedAgent(t *testing.T, group int32, seed uint64) (*Agent, *wan.Shaper) {
	t.Helper()
	sh := wan.Wrap(udpConn(t), seed)
	a := New(group, sh, seed)
	t.Cleanup(func() { a.Close() })
	return a, sh
}

func startRelay(t *testing.T, id netsim.RelayID) *relay.Node {
	t.Helper()
	n := relay.New(id, udpConn(t))
	go n.Serve()
	t.Cleanup(func() { n.Close() })
	return n
}

func relayDir(nodes ...*relay.Node) map[netsim.RelayID]string {
	out := map[netsim.RelayID]string{}
	for _, n := range nodes {
		out[n.ID()] = n.Addr().String()
	}
	return out
}

func TestDirectCallCleanPath(t *testing.T) {
	caller := newAgent(t, 1, 1)
	callee := newAgent(t, 2, 2)
	m, err := caller.Call(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.DirectOption(),
		Duration: 400 * time.Millisecond,
		PPS:      100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.LossRate > 0.02 {
		t.Errorf("loss on loopback = %v", m.LossRate)
	}
	if m.RTTMs <= 0 || m.RTTMs > 50 {
		t.Errorf("loopback RTT = %v ms", m.RTTMs)
	}
	if m.JitterMs > 10 {
		t.Errorf("loopback jitter = %v ms", m.JitterMs)
	}
}

func TestBounceCall(t *testing.T) {
	r := startRelay(t, 3)
	caller := newAgent(t, 1, 3)
	callee := newAgent(t, 2, 4)
	if err := caller.SetRelays(relayDir(r)); err != nil {
		t.Fatal(err)
	}
	m, err := caller.Call(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.BounceOption(3),
		Duration: 400 * time.Millisecond,
		PPS:      100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.RTTMs <= 0 {
		t.Error("no RTT measured through bounce relay")
	}
	pkts, _, _ := r.Stats()
	if pkts == 0 {
		t.Error("relay saw no traffic for a bounce call")
	}
}

func TestTransitCall(t *testing.T) {
	r1 := startRelay(t, 1)
	r2 := startRelay(t, 2)
	caller := newAgent(t, 1, 5)
	callee := newAgent(t, 2, 6)
	if err := caller.SetRelays(relayDir(r1, r2)); err != nil {
		t.Fatal(err)
	}
	m, err := caller.Call(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.TransitOption(1, 2),
		Duration: 400 * time.Millisecond,
		PPS:      100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.RTTMs <= 0 {
		t.Error("no RTT through transit pair")
	}
	p1, _, _ := r1.Stats()
	p2, _, _ := r2.Stats()
	if p1 == 0 || p2 == 0 {
		t.Errorf("transit relays saw %d/%d packets", p1, p2)
	}
}

func TestCallMeasuresImpairedRTT(t *testing.T) {
	caller, sh := newShapedAgent(t, 1, 7)
	callee := newAgent(t, 2, 8)
	// 40ms each way on the caller's outgoing link. The reply path is
	// unimpaired, so measured RTT ≈ 40ms+.
	sh.SetLink(callee.Addr().String(), wan.LinkParams{DelayMs: 40})
	m, err := caller.Call(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.DirectOption(),
		Duration: 500 * time.Millisecond,
		PPS:      100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.RTTMs < 35 || m.RTTMs > 120 {
		t.Errorf("measured RTT = %v ms, want ~40-60", m.RTTMs)
	}
}

func TestCallMeasuresImpairedLoss(t *testing.T) {
	caller, sh := newShapedAgent(t, 1, 9)
	callee := newAgent(t, 2, 10)
	sh.SetLink(callee.Addr().String(), wan.LinkParams{LossRate: 0.3})
	m, err := caller.Call(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.DirectOption(),
		Duration: 800 * time.Millisecond,
		PPS:      150,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.LossRate-0.3) > 0.15 {
		t.Errorf("measured loss = %v, want ~0.3", m.LossRate)
	}
}

func TestCallMeasuresImpairedJitter(t *testing.T) {
	caller, sh := newShapedAgent(t, 1, 11)
	callee := newAgent(t, 2, 12)
	sh.SetLink(callee.Addr().String(), wan.LinkParams{DelayMs: 5, JitterMs: 12})
	m, err := caller.Call(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.DirectOption(),
		Duration: 800 * time.Millisecond,
		PPS:      100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.JitterMs < 2 {
		t.Errorf("measured jitter = %v ms with 12ms link jitter", m.JitterMs)
	}
}

func TestCallDeadPath(t *testing.T) {
	caller, sh := newShapedAgent(t, 1, 13)
	callee := newAgent(t, 2, 14)
	sh.SetLink(callee.Addr().String(), wan.LinkParams{LossRate: 1})
	_, err := caller.Call(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.DirectOption(),
		Duration: 200 * time.Millisecond,
		PPS:      50,
	})
	if err != ErrNoFeedback {
		t.Errorf("dead path error = %v, want ErrNoFeedback", err)
	}
}

func TestCallUnknownRelay(t *testing.T) {
	caller := newAgent(t, 1, 15)
	callee := newAgent(t, 2, 16)
	_, err := caller.Call(CallSpec{
		Peer:   callee.Addr(),
		Option: netsim.BounceOption(99),
	})
	if err == nil {
		t.Error("unknown relay accepted")
	}
}

func TestSetRelaysBadAddr(t *testing.T) {
	a := newAgent(t, 1, 17)
	if err := a.SetRelays(map[netsim.RelayID]string{1: "not-an-addr:xx"}); err == nil {
		t.Error("bad relay addr accepted")
	}
}

func TestConcurrentCalls(t *testing.T) {
	r := startRelay(t, 1)
	caller := newAgent(t, 1, 18)
	c1 := newAgent(t, 2, 19)
	c2 := newAgent(t, 3, 20)
	caller.SetRelays(relayDir(r))

	type res struct {
		rtt float64
		err error
	}
	ch := make(chan res, 2)
	for _, peer := range []*Agent{c1, c2} {
		go func(p *Agent) {
			m, err := caller.Call(CallSpec{
				Peer: p.Addr(), Option: netsim.BounceOption(1),
				Duration: 300 * time.Millisecond, PPS: 100,
			})
			ch <- res{m.RTTMs, err}
		}(peer)
	}
	for i := 0; i < 2; i++ {
		r := <-ch
		if r.err != nil {
			t.Errorf("concurrent call failed: %v", r.err)
		}
		if r.rtt <= 0 {
			t.Error("concurrent call measured no RTT")
		}
	}
}

func TestNanosRoundTrip(t *testing.T) {
	buf := make([]byte, 8)
	for _, v := range []int64{0, 1, -1, time.Now().UnixNano(), math.MaxInt64, math.MinInt64} {
		putNanos(buf, v)
		if got := getNanos(buf); got != v {
			t.Errorf("nanos round trip %d -> %d", v, got)
		}
	}
}

func TestAgentDoubleClose(t *testing.T) {
	a := New(1, udpConn(t), 21)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Error("double close errored:", err)
	}
}

// deadRelayAgent is an agent whose directory maps relay id to an address
// nothing listens on, so every relayed path through it is dead from the
// first packet.
func deadRelayAgent(t *testing.T, id netsim.RelayID, seed uint64) *Agent {
	t.Helper()
	a := newAgent(t, 1, seed)
	if err := a.SetRelays(map[netsim.RelayID]string{id: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCallResilientDeadRelayFallsBackDirect(t *testing.T) {
	// Route the call through a relay that is not running: no feedback over
	// the relayed path, so the agent must fail over to direct and succeed
	// within the default liveness window.
	caller := deadRelayAgent(t, 7, 40)
	callee := newAgent(t, 2, 41)
	out, err := caller.CallResilient(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.BounceOption(7),
		Failover: []netsim.Option{netsim.DirectOption()},
		Duration: 600 * time.Millisecond,
		PPS:      100,
	})
	if err != nil {
		t.Fatalf("fallback call failed: %v", err)
	}
	if out.Used != netsim.DirectOption() {
		t.Errorf("used option = %v, want direct fallback", out.Used)
	}
	if out.Metrics.RTTMs <= 0 {
		t.Error("fallback call measured no RTT")
	}
}

// TestDeadFirstPathFailsOverInOneWindow: a path that is dead from setup
// fails over after one FailoverAfter window, so a call only a little
// longer than the window still finishes on its fallback.
func TestDeadFirstPathFailsOverInOneWindow(t *testing.T) {
	caller := deadRelayAgent(t, 7, 44)
	callee := newAgent(t, 2, 45)
	out, err := caller.CallResilient(CallSpec{
		Peer:          callee.Addr(),
		Option:        netsim.BounceOption(7),
		Failover:      []netsim.Option{netsim.DirectOption()},
		FailoverAfter: 200 * time.Millisecond,
		Duration:      350 * time.Millisecond,
		PPS:           100,
	})
	if err != nil {
		t.Fatalf("call over a dead first path: %v", err)
	}
	if out.Used != netsim.DirectOption() {
		t.Errorf("finished on %v, want direct", out.Used)
	}
	if len(out.Failed) != 1 {
		t.Errorf("failed options = %v, want [bounce 7]", out.Failed)
	}
}

func TestCallResilientKeepsWorkingOption(t *testing.T) {
	r := startRelay(t, 3)
	caller := newAgent(t, 1, 42)
	callee := newAgent(t, 2, 43)
	caller.SetRelays(relayDir(r))
	out, err := caller.CallResilient(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.BounceOption(3),
		Failover: []netsim.Option{netsim.DirectOption()},
		Duration: 200 * time.Millisecond,
		PPS:      100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Used != netsim.BounceOption(3) {
		t.Errorf("healthy relay replaced: used %v", out.Used)
	}
}

func TestDuplexCall(t *testing.T) {
	r := startRelay(t, 5)
	caller := newAgent(t, 1, 50)
	callee := newAgent(t, 2, 51)
	caller.SetRelays(relayDir(r))
	fwd, rev, err := caller.CallDuplex(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.BounceOption(5),
		Duration: 500 * time.Millisecond,
		PPS:      100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fwd.RTTMs <= 0 {
		t.Error("forward direction measured no RTT")
	}
	// The reverse stream must have arrived and been measured: its loss on
	// clean loopback should be ~0 and some packets must have been seen.
	if rev.LossRate > 0.05 {
		t.Errorf("reverse loss = %v on clean loopback", rev.LossRate)
	}
	// Reverse jitter must be a real measurement (estimator engaged).
	if rev.JitterMs < 0 {
		t.Errorf("reverse jitter = %v", rev.JitterMs)
	}
}

func TestDuplexReverseStreamImpaired(t *testing.T) {
	// Impair the callee's outgoing link: the caller's reverse-direction
	// measurement must see the loss.
	caller := newAgent(t, 1, 52)
	calleeSh := wan.Wrap(udpConn(t), 53)
	callee := New(2, calleeSh, 53)
	t.Cleanup(func() { callee.Close() })
	calleeSh.SetLink(caller.Addr().String(), wan.LinkParams{LossRate: 0.35})

	fwd, rev, err := caller.CallDuplex(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.DirectOption(),
		Duration: 800 * time.Millisecond,
		PPS:      100,
	})
	// Forward reports traverse the impaired reverse link too; the call may
	// still complete because only 35% are lost.
	if err != nil {
		t.Fatal(err)
	}
	if fwd.LossRate > 0.1 {
		t.Errorf("forward loss = %v; forward path is clean", fwd.LossRate)
	}
	if rev.LossRate < 0.1 {
		t.Errorf("reverse loss = %v, want ~0.35", rev.LossRate)
	}
}

func TestCallResilientFailsOverMidCall(t *testing.T) {
	// Kill the relay path 300ms into a 1.5s call by blackholing the
	// caller→relay segment. Receiver reports stop; the agent must repath
	// to direct and finish the call.
	r := startRelay(t, 9)
	caller, sh := newShapedAgent(t, 1, 60)
	callee := newAgent(t, 2, 61)
	caller.SetRelays(relayDir(r))

	go func() {
		time.Sleep(300 * time.Millisecond)
		sh.SetBlackhole(r.Addr().String(), true)
	}()
	out, err := caller.CallResilient(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.BounceOption(9),
		Failover: []netsim.Option{netsim.DirectOption()},
		Duration: 1500 * time.Millisecond,
		PPS:      100,
	})
	if err != nil {
		t.Fatalf("resilient call failed: %v", err)
	}
	if out.Used != netsim.DirectOption() {
		t.Errorf("finished on %v, want direct after failover", out.Used)
	}
	if out.Failovers() != 1 {
		t.Errorf("failovers = %d, want 1", out.Failovers())
	}
	if len(out.Failed) != 1 || out.Failed[0] != netsim.BounceOption(9) {
		t.Errorf("failed options = %v, want [bounce 9]", out.Failed)
	}
	if caller.Failovers() != 1 {
		t.Errorf("agent failover counter = %d, want 1", caller.Failovers())
	}
	// The dead window shows up as loss in the call's own metrics.
	if out.Metrics.LossRate <= 0 {
		t.Error("dead window left no loss in metrics")
	}
}

func TestCallResilientUnresolvablePrimary(t *testing.T) {
	// The primary option's relay is not in the directory at all: fail over
	// before any media flows, without waiting out a liveness deadline.
	caller := newAgent(t, 1, 62)
	callee := newAgent(t, 2, 63)
	start := time.Now()
	out, err := caller.CallResilient(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.BounceOption(42),
		Failover: []netsim.Option{netsim.DirectOption()},
		Duration: 200 * time.Millisecond,
		PPS:      100,
	})
	if err != nil {
		t.Fatalf("resilient call failed: %v", err)
	}
	if out.Used != netsim.DirectOption() {
		t.Errorf("finished on %v, want direct", out.Used)
	}
	if out.Failovers() != 1 {
		t.Errorf("failovers = %d, want 1", out.Failovers())
	}
	if time.Since(start) > time.Second {
		t.Error("unresolvable primary waited out a liveness deadline")
	}
}

func TestCallResilientNoFailoverOnHealthyPath(t *testing.T) {
	r := startRelay(t, 11)
	caller := newAgent(t, 1, 64)
	callee := newAgent(t, 2, 65)
	caller.SetRelays(relayDir(r))
	out, err := caller.CallResilient(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.BounceOption(11),
		Failover: []netsim.Option{netsim.DirectOption()},
		Duration: 600 * time.Millisecond,
		PPS:      100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Used != netsim.BounceOption(11) {
		t.Errorf("healthy path abandoned for %v", out.Used)
	}
	if out.Failovers() != 0 {
		t.Errorf("failovers = %d on a healthy path", out.Failovers())
	}
}

func TestCallResilientRidesOutWithNoCandidates(t *testing.T) {
	// No failover candidates: a dead path ends in ErrNoFeedback exactly as
	// a plain Call would, with the failed attempt visible in the outcome.
	caller, sh := newShapedAgent(t, 1, 66)
	callee := newAgent(t, 2, 67)
	sh.SetBlackhole(callee.Addr().String(), true)
	out, err := caller.CallResilient(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.DirectOption(),
		Duration: 300 * time.Millisecond,
		PPS:      50,
	})
	if err != ErrNoFeedback {
		t.Errorf("err = %v, want ErrNoFeedback", err)
	}
	if out.Failovers() != 0 {
		t.Errorf("failovers = %d with no candidates", out.Failovers())
	}
}

func TestDeadPathMetricsValidAndPunitive(t *testing.T) {
	m := DeadPathMetrics()
	if !m.Valid() {
		t.Fatal("DeadPathMetrics must pass controller validation")
	}
	if m.LossRate != 1 || m.RTTMs < 1000 {
		t.Errorf("DeadPathMetrics = %+v; want total loss and pessimal RTT", m)
	}
}

// TestIncomingEvictionSparesNewestAndLive: past maxIncoming callee-side
// entries the one evicted is the one whose media last arrived longest ago —
// not the call just inserted, and not an early-inserted call that is still
// receiving (evicting either would reset a live call's loss/NACK/FEC state
// and make the callee mint a second token).
func TestIncomingEvictionSparesNewestAndLive(t *testing.T) {
	a := newAgent(t, 1, 1)
	pkt := rtp.Packet{PayloadType: ptSimplex, Payload: make([]byte, 160)}
	media := func(session uint64) {
		f := transport.Frame{Session: session, Kind: transport.KindMedia, Payload: pkt.Marshal(nil)}
		a.handleMedia(&f)
		pkt.Seq++
	}
	for s := uint64(1); s <= maxIncoming; s++ {
		media(s)
		if s <= 2 {
			time.Sleep(time.Millisecond) // 1 and 2 are strictly the stalest
		}
	}
	media(1)               // inserted first, but live
	media(maxIncoming + 1) // one past the bound: somebody goes
	got := a.incomingSessions()
	if len(got) != maxIncoming {
		t.Errorf("incoming = %d entries, want %d", len(got), maxIncoming)
	}
	if !got[maxIncoming+1] {
		t.Error("the call just inserted was evicted")
	}
	if !got[1] {
		t.Error("a call that had just received media was evicted")
	}
	if got[2] {
		t.Error("the stalest call survived")
	}
}
