package relay

import (
	"net"
	"testing"
	"time"

	"repro/internal/transport"
)

// sendMedia marshals and writes one media frame for session sess with
// token tok routed to dst, from conn src via relay r.
func sendMedia(t *testing.T, src net.PacketConn, r *Node, sess uint64, tok transport.Token, dst net.Addr, payload string) {
	t.Helper()
	f := transport.Frame{Session: sess, Kind: transport.KindMedia, Token: tok, Payload: []byte(payload)}
	if err := f.SetRoute([]*net.UDPAddr{udpAddr(dst)}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteTo(f.Marshal(nil), r.Addr()); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestKeepaliveRefreshesIdleTTL is the regression test for the
// idle-eviction fix: eviction used to count only data packets, so a long
// silent-but-alive call (voice activity detection, hold music muted)
// would be evicted mid-call. Keepalives must refresh the idle deadline.
func TestKeepaliveRefreshesIdleTTL(t *testing.T) {
	conn := &discardConn{}
	n := New(1, conn)
	setSessionLimits(n, 50*time.Millisecond, 0)

	out := make([]byte, 0, 4096)
	var f transport.Frame
	src := &net.UDPAddr{IP: net.IPv4(10, 9, 0, 1), Port: 4000}

	// Two sessions: 1 keeps sending keepalives, 2 goes silent.
	n.handle(repairWire(t), src.AddrPort(), &out, &f) // session 0xFEED (the control)
	ka := transport.Frame{Session: 0xBEEF, Kind: transport.KindKeepalive}
	n.handle(ka.Marshal(nil), src.AddrPort(), &out, &f) // creates session 0xBEEF

	// Stay silent for several TTLs on 0xFEED while 0xBEEF keepalives.
	kaWire := ka.Marshal(nil)
	for i := 0; i < 8; i++ {
		time.Sleep(20 * time.Millisecond)
		n.handle(kaWire, src.AddrPort(), &out, &f)
	}

	n.mu.Lock()
	n.sweepIdleLocked(time.Now())
	n.mu.Unlock()

	if _, ok := n.session(0xBEEF); !ok {
		t.Error("keepalive-refreshed session was evicted")
	}
	if _, ok := n.session(0xFEED); ok {
		t.Error("silent session survived the idle sweep")
	}
	if n.keepalives.Load() != 9 {
		t.Errorf("keepalives = %d, want 9", n.keepalives.Load())
	}
	if n.Evicted() == 0 {
		t.Error("no eviction recorded for the silent session")
	}
}

// TestPathValidationAndRepin walks the full migration dance: bind a token
// to one address, rebind to a new address, answer the relay's challenge,
// and observe reverse traffic re-pinned to the new address before the
// peer has learned any new reply route.
func TestPathValidationAndRepin(t *testing.T) {
	r := startRelay(t, 1)
	c1, c2, peer := listen(t), listen(t), listen(t)
	defer c1.Close()
	defer c2.Close()
	defer peer.Close()

	tok := transport.Token{0xA, 0xB, 0xC}
	const sess = 99

	// Bind: first frame from c1 pins the token to c1's address.
	sendMedia(t, c1, r, sess, tok, peer.LocalAddr(), "m1")
	if got := recvFrame(t, peer, time.Second); got == nil || string(got.Payload) != "m1" {
		t.Fatal("initial media not forwarded")
	}

	// Rebind: same token from c2. The media must keep flowing (forwarding
	// toward a known destination amplifies nothing) and a challenge must
	// arrive at c2 — and only c2.
	sendMedia(t, c2, r, sess, tok, peer.LocalAddr(), "m2")
	if got := recvFrame(t, peer, time.Second); got == nil || string(got.Payload) != "m2" {
		t.Fatal("post-rebind media not forwarded")
	}
	ch := recvFrame(t, c2, time.Second)
	if ch == nil || ch.Kind != transport.KindPathChallenge {
		t.Fatalf("no path challenge at new address: %+v", ch)
	}
	if ch.Token != tok {
		t.Fatalf("challenge token = %x", ch.Token)
	}
	var pc transport.PathChallenge
	if err := pc.Unmarshal(ch.Payload); err != nil {
		t.Fatalf("challenge payload: %v", err)
	}

	// Before the response, reverse traffic still goes to the old address.
	rev := transport.Frame{Session: sess, Kind: transport.KindMedia, Payload: []byte("r0")}
	if err := rev.SetRoute([]*net.UDPAddr{udpAddr(c1.LocalAddr())}); err != nil {
		t.Fatal(err)
	}
	peer.WriteTo(rev.Marshal(nil), r.Addr())
	if got := recvFrame(t, c1, time.Second); got == nil || string(got.Payload) != "r0" {
		t.Fatal("pre-validation reverse media not delivered to old address")
	}

	// Echo the challenge from the new address: validated, re-pinned.
	resp := transport.Frame{Session: sess, Kind: transport.KindPathResponse, Token: tok, Payload: ch.Payload}
	if _, err := c2.WriteTo(resp.Marshal(nil), r.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "migration", func() bool { return r.Migrations() == 1 })

	// Reverse traffic addressed to the stale c1 now lands on c2.
	rev.Payload = []byte("r1")
	peer.WriteTo(rev.Marshal(nil), r.Addr())
	if got := recvFrame(t, c2, time.Second); got == nil || string(got.Payload) != "r1" {
		t.Fatal("post-validation reverse media not re-pinned to new address")
	}
	if got := recvFrame(t, c1, 100*time.Millisecond); got != nil {
		t.Error("stale address still receiving after migration")
	}
	if r.pathOK.Load() != 1 || r.challenges.Load() == 0 {
		t.Errorf("counters: ok=%d challenges=%d", r.pathOK.Load(), r.challenges.Load())
	}

	// Amplification bound: the challenge is no larger than the smallest
	// frame that can trigger it (a payload-less v3 media frame).
	trigger := transport.Frame{Session: sess, Kind: transport.KindMedia, Token: tok}
	if challengeLen := len(ch.Marshal(nil)); challengeLen > len(trigger.Marshal(nil))+transport.PathChallengeLen {
		t.Errorf("challenge (%dB) amplifies beyond its trigger", challengeLen)
	}
}

// TestUnansweredChallengeDoesNotRepin: without a valid response the relay
// must keep delivering to the validated address, and a forged response
// (wrong nonce) must be rejected.
func TestUnansweredChallengeDoesNotRepin(t *testing.T) {
	r := startRelay(t, 1)
	c1, c2, peer := listen(t), listen(t), listen(t)
	defer c1.Close()
	defer c2.Close()
	defer peer.Close()

	tok := transport.Token{7}
	const sess = 44
	sendMedia(t, c1, r, sess, tok, peer.LocalAddr(), "m1")
	recvFrame(t, peer, time.Second)
	sendMedia(t, c2, r, sess, tok, peer.LocalAddr(), "m2")
	recvFrame(t, peer, time.Second)
	ch := recvFrame(t, c2, time.Second)
	if ch == nil || ch.Kind != transport.KindPathChallenge {
		t.Fatalf("no challenge: %+v", ch)
	}

	// Forge a response with a flipped nonce byte.
	bad := append([]byte(nil), ch.Payload...)
	bad[0] ^= 0xFF
	resp := transport.Frame{Session: sess, Kind: transport.KindPathResponse, Token: tok, Payload: bad}
	c2.WriteTo(resp.Marshal(nil), r.Addr())
	waitFor(t, "failure count", func() bool { return r.pathFail.Load() >= 1 })

	rev := transport.Frame{Session: sess, Kind: transport.KindMedia, Payload: []byte("r")}
	if err := rev.SetRoute([]*net.UDPAddr{udpAddr(c1.LocalAddr())}); err != nil {
		t.Fatal(err)
	}
	peer.WriteTo(rev.Marshal(nil), r.Addr())
	if got := recvFrame(t, c1, time.Second); got == nil {
		t.Error("reverse media abandoned the validated address on a forged response")
	}
	if r.Migrations() != 0 {
		t.Errorf("migrations = %d after forged response", r.Migrations())
	}
}

// TestDrainMode: a draining relay nudges active endpoints, keeps serving
// their sessions, rejects new ones, and reports Draining for heartbeats.
func TestDrainMode(t *testing.T) {
	r := startRelay(t, 1)
	c1, c9, peer := listen(t), listen(t), listen(t)
	defer c1.Close()
	defer c9.Close()
	defer peer.Close()

	tok := transport.Token{1}
	sendMedia(t, c1, r, 5, tok, peer.LocalAddr(), "m1")
	if got := recvFrame(t, peer, time.Second); got == nil {
		t.Fatal("media not forwarded before drain")
	}

	r.SetDraining(true)
	if !r.Draining() {
		t.Fatal("Draining() = false after SetDraining(true)")
	}
	nudge := recvFrame(t, c1, time.Second)
	if nudge == nil || nudge.Kind != transport.KindDrain || nudge.Session != 5 {
		t.Fatalf("no drain nudge at active endpoint: %+v", nudge)
	}

	// The existing session keeps forwarding while it migrates.
	sendMedia(t, c1, r, 5, tok, peer.LocalAddr(), "m2")
	if got := recvFrame(t, peer, time.Second); got == nil || string(got.Payload) != "m2" {
		t.Fatal("existing session stopped forwarding during drain")
	}

	// A brand-new session is refused.
	sendMedia(t, c9, r, 777, transport.Token{9}, peer.LocalAddr(), "new")
	if got := recvFrame(t, peer, 150*time.Millisecond); got != nil {
		t.Fatal("draining relay accepted a new session")
	}
	waitFor(t, "drain reject count", func() bool { return r.drainRejected.Load() >= 1 })

	r.SetDraining(false)
	sendMedia(t, c9, r, 778, transport.Token{9}, peer.LocalAddr(), "ok")
	if got := recvFrame(t, peer, time.Second); got == nil || string(got.Payload) != "ok" {
		t.Fatal("relay did not resume accepting sessions after drain off")
	}
}
