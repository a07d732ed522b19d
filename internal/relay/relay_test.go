package relay

import (
	"net"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

func listen(t *testing.T) net.PacketConn {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func startRelay(t *testing.T, id int) *Node {
	t.Helper()
	n := New(netsim.RelayID(id), listen(t))
	go n.Serve()
	t.Cleanup(func() { n.Close() })
	return n
}

func udpAddr(a net.Addr) *net.UDPAddr { return a.(*net.UDPAddr) }

func recvFrame(t *testing.T, c net.PacketConn, timeout time.Duration) *transport.Frame {
	t.Helper()
	buf := make([]byte, 64*1024)
	c.SetReadDeadline(time.Now().Add(timeout))
	n, _, err := c.ReadFrom(buf)
	if err != nil {
		return nil
	}
	var f transport.Frame
	if err := f.Unmarshal(buf[:n]); err != nil {
		t.Fatalf("bad frame: %v", err)
	}
	return &f
}

func TestBounceForwarding(t *testing.T) {
	r := startRelay(t, 1)
	src, dst := listen(t), listen(t)
	defer src.Close()
	defer dst.Close()

	f := transport.Frame{Session: 42, Kind: transport.KindMedia, Payload: []byte("voice")}
	if err := f.SetRoute([]*net.UDPAddr{udpAddr(dst.LocalAddr())}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteTo(f.Marshal(nil), r.Addr()); err != nil {
		t.Fatal(err)
	}
	got := recvFrame(t, dst, time.Second)
	if got == nil {
		t.Fatal("frame not forwarded")
	}
	if got.Session != 42 || string(got.Payload) != "voice" {
		t.Errorf("forwarded frame mangled: %+v", got)
	}
	if len(got.Route) != 0 {
		t.Error("delivered frame should have an exhausted route")
	}
}

func TestTransitForwarding(t *testing.T) {
	r1 := startRelay(t, 1)
	r2 := startRelay(t, 2)
	src, dst := listen(t), listen(t)
	defer src.Close()
	defer dst.Close()

	f := transport.Frame{Session: 7, Kind: transport.KindMedia, Payload: []byte("x")}
	if err := f.SetRoute([]*net.UDPAddr{udpAddr(r2.Addr()), udpAddr(dst.LocalAddr())}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteTo(f.Marshal(nil), r1.Addr()); err != nil {
		t.Fatal(err)
	}
	got := recvFrame(t, dst, time.Second)
	if got == nil {
		t.Fatal("transit frame not delivered")
	}
	// Both relays should have accounted the session.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if _, ok1 := r1.session(7); ok1 {
			if _, ok2 := r2.session(7); ok2 {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	s1, ok1 := r1.session(7)
	s2, ok2 := r2.session(7)
	if !ok1 || !ok2 || s1.Packets != 1 || s2.Packets != 1 {
		t.Errorf("session accounting: r1=%+v(%v) r2=%+v(%v)", s1, ok1, s2, ok2)
	}
}

func TestRelayDropsGarbageAndExhausted(t *testing.T) {
	r := startRelay(t, 1)
	src := listen(t)
	defer src.Close()

	// Garbage datagram.
	src.WriteTo([]byte("not a frame"), r.Addr())
	// Valid frame with empty route (misrouted).
	f := transport.Frame{Session: 1, Payload: []byte("x")}
	src.WriteTo(f.Marshal(nil), r.Addr())

	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if _, _, d := r.Stats(); d >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	pkts, _, dropped := r.Stats()
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	if pkts != 0 {
		t.Errorf("forwarded %d packets, want 0", pkts)
	}
}

func TestRelayAccounting(t *testing.T) {
	r := startRelay(t, 1)
	src, dst := listen(t), listen(t)
	defer src.Close()
	defer dst.Close()

	var sentBytes int64
	for i := 0; i < 5; i++ {
		f := transport.Frame{Session: uint64(100 + i%2), Payload: make([]byte, 100)}
		f.SetRoute([]*net.UDPAddr{udpAddr(dst.LocalAddr())})
		wire := f.Marshal(nil)
		sentBytes += int64(len(wire))
		src.WriteTo(wire, r.Addr())
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if p, _, _ := r.Stats(); p == 5 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	pkts, bytes, _ := r.Stats()
	if pkts != 5 || bytes != sentBytes {
		t.Errorf("stats = %d pkts %d bytes, want 5/%d", pkts, bytes, sentBytes)
	}
	if r.Sessions() != 2 {
		t.Errorf("sessions = %d, want 2", r.Sessions())
	}
	if _, ok := r.session(999); ok {
		t.Error("unknown session reported present")
	}
}

func TestRelayCloseStopsServe(t *testing.T) {
	n := New(1, listen(t))
	done := make(chan error, 1)
	go func() { done <- n.Serve() }()
	time.Sleep(20 * time.Millisecond)
	n.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v after Close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

func TestSessionTableCapEvictsOldest(t *testing.T) {
	r := startRelay(t, 1)
	setSessionLimits(r, time.Hour, 4) // TTL never fires; only the cap does
	src, dst := listen(t), listen(t)
	defer src.Close()
	defer dst.Close()

	send := func(session uint64) {
		f := transport.Frame{Session: session, Payload: []byte("x")}
		f.SetRoute([]*net.UDPAddr{udpAddr(dst.LocalAddr())})
		src.WriteTo(f.Marshal(nil), r.Addr())
	}
	for s := uint64(1); s <= 10; s++ {
		send(s)
		// Serialize arrivals so lastSeen ordering is deterministic.
		deadline := time.Now().Add(time.Second)
		for time.Now().Before(deadline) {
			if p, _, _ := r.Stats(); p >= int64(s) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if n := r.Sessions(); n > 4 {
		t.Errorf("session table = %d entries, cap is 4", n)
	}
	if r.Evicted() < 6 {
		t.Errorf("evicted = %d, want >= 6", r.Evicted())
	}
	// The most recent session survived; the earliest did not.
	if _, ok := r.session(10); !ok {
		t.Error("newest session evicted")
	}
	if _, ok := r.session(1); ok {
		t.Error("oldest session still present past the cap")
	}
}

func TestSessionIdleSweep(t *testing.T) {
	r := startRelay(t, 1)
	setSessionLimits(r, 30*time.Millisecond, 2) // tiny TTL, tiny cap
	src, dst := listen(t), listen(t)
	defer src.Close()
	defer dst.Close()

	send := func(session uint64) {
		f := transport.Frame{Session: session, Payload: []byte("x")}
		f.SetRoute([]*net.UDPAddr{udpAddr(dst.LocalAddr())})
		src.WriteTo(f.Marshal(nil), r.Addr())
	}
	send(1)
	send(2)
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if r.Sessions() == 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(60 * time.Millisecond) // both sessions go idle past the TTL

	// A new session hits the cap, which sweeps the idle entries instead of
	// evicting anything live.
	send(3)
	deadline = time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if _, ok := r.session(3); ok {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := r.session(3); !ok {
		t.Fatal("new session not accounted")
	}
	if _, ok := r.session(1); ok {
		t.Error("idle session survived the sweep")
	}
	if r.Evicted() == 0 {
		t.Error("no evictions recorded after idle sweep")
	}
}

// setSessionLimits overrides n's session-table bounds; zero keeps a bound.
func setSessionLimits(n *Node, idleTTL time.Duration, maxSess int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if idleTTL > 0 {
		n.idleTTL = idleTTL
	}
	if maxSess > 0 {
		n.maxSess = maxSess
	}
}

// session returns a copy of one session's accounting.
func (n *Node) session(id uint64) (SessionStats, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ss := n.sessions[id]
	if ss == nil {
		return SessionStats{}, false
	}
	return ss.SessionStats, true
}
