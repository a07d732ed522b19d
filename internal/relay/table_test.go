package relay

import (
	"net"
	"testing"
	"time"

	"repro/internal/transport"
)

// expectQuiet asserts nothing is waiting at c.
func expectQuiet(t *testing.T, c net.PacketConn, who string) {
	t.Helper()
	if got := recvFrame(t, c, 60*time.Millisecond); got != nil {
		t.Fatalf("%s received an unexpected frame: kind %d payload %q", who, got.Kind, got.Payload)
	}
}

// expectMedia asserts the next frame at c is the media frame with payload.
func expectMedia(t *testing.T, c net.PacketConn, who, payload string) {
	t.Helper()
	got := recvFrame(t, c, time.Second)
	if got == nil || got.Kind != transport.KindMedia || string(got.Payload) != payload {
		t.Fatalf("%s: want media %q, got %+v", who, payload, got)
	}
}

// migrate moves the endpoint holding tok to conn to: one media frame from
// the new address, which must draw a challenge there, answered from there.
// With answer false the challenge is read but left unanswered.
func migrate(t *testing.T, r *Node, sess uint64, tok transport.Token, to net.PacketConn, dst net.PacketConn, answer bool) {
	t.Helper()
	before := r.Migrations()
	sendMedia(t, to, r, sess, tok, dst.LocalAddr(), "move")
	expectMedia(t, dst, "peer of the moving endpoint", "move")
	ch := recvFrame(t, to, time.Second)
	if ch == nil || ch.Kind != transport.KindPathChallenge || ch.Token != tok {
		t.Fatalf("no path challenge at the new address: %+v", ch)
	}
	if !answer {
		return
	}
	resp := transport.Frame{Session: sess, Kind: transport.KindPathResponse, Token: tok, Payload: ch.Payload}
	if _, err := to.WriteTo(resp.Marshal(nil), r.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "migration", func() bool { return r.Migrations() == before+1 })
}

// sendTo writes one tokenless media frame for sess from src whose final
// hop names stale.
func sendTo(t *testing.T, src net.PacketConn, r *Node, sess uint64, stale net.PacketConn, payload string) {
	t.Helper()
	sendMedia(t, src, r, sess, transport.Token{}, stale.LocalAddr(), payload)
}

// TestMultiRebindFollowsLatestAddress: an endpoint validates A→B→C. Frames
// whose final hop names A or B land on C, a challenge is only ever written
// to the address being validated, and an unanswered challenge leaves the
// pin where it was.
func TestMultiRebindFollowsLatestAddress(t *testing.T) {
	r := startRelay(t, 1)
	a, b, c, peer := listen(t), listen(t), listen(t), listen(t)
	for _, conn := range []net.PacketConn{a, b, c, peer} {
		defer conn.Close()
	}
	tok := transport.Token{0x51}
	const sess = 1234

	sendMedia(t, a, r, sess, tok, peer.LocalAddr(), "bind")
	expectMedia(t, peer, "peer", "bind")

	migrate(t, r, sess, tok, b, peer, true)
	sendTo(t, peer, r, sess, a, "toA-1")
	expectMedia(t, b, "B (pinned)", "toA-1")

	// C asks but does not answer: the pin stays on B for A- and B-addressed
	// frames alike, and nothing but the challenge reached C.
	migrate(t, r, sess, tok, c, peer, false)
	sendTo(t, peer, r, sess, a, "toA-2")
	expectMedia(t, b, "B (C unvalidated)", "toA-2")
	sendTo(t, peer, r, sess, b, "toB-2")
	expectMedia(t, b, "B (C unvalidated)", "toB-2")
	expectQuiet(t, c, "unvalidated C")

	// C answers a fresh challenge (the resend spacing has to pass first).
	time.Sleep(pathChallengeResend + 20*time.Millisecond)
	migrate(t, r, sess, tok, c, peer, true)
	for i, stale := range []net.PacketConn{a, b, c} {
		payload := string(rune('x' + i))
		sendTo(t, peer, r, sess, stale, payload)
		expectMedia(t, c, "C (pinned)", payload)
	}
	if r.Migrations() != 2 {
		t.Errorf("migrations = %d, want 2", r.Migrations())
	}
	// A only ever sent; B got its challenge and its pinned media, all read
	// above; the peer never saw a challenge.
	expectQuiet(t, a, "A")
	expectQuiet(t, b, "B after the move to C")
	expectQuiet(t, peer, "peer")
}

// TestTwoEndpointsMigrateIndependently: the caller's and the callee's
// tokens live on one session; each moves without disturbing the other's
// pin, and the session's accounting counts every forwarded media frame
// exactly once.
func TestTwoEndpointsMigrateIndependently(t *testing.T) {
	r := startRelay(t, 1)
	a1, a2, b1, b2 := listen(t), listen(t), listen(t), listen(t)
	for _, conn := range []net.PacketConn{a1, a2, b1, b2} {
		defer conn.Close()
	}
	caller, callee := transport.Token{0xCA}, transport.Token{0xCE}
	const sess = 77
	var wantPkts, wantBytes int64
	media := func(src net.PacketConn, tok transport.Token, dst net.PacketConn, payload string) {
		f := transport.Frame{Session: sess, Kind: transport.KindMedia, Token: tok, Payload: []byte(payload)}
		if err := f.SetRoute([]*net.UDPAddr{udpAddr(dst.LocalAddr())}); err != nil {
			t.Fatal(err)
		}
		wantPkts++
		wantBytes += int64(len(f.Marshal(nil)))
		sendMedia(t, src, r, sess, tok, dst.LocalAddr(), payload)
	}

	media(a1, caller, b1, "fwd")
	expectMedia(t, b1, "callee", "fwd")
	media(b1, callee, a1, "rev")
	expectMedia(t, a1, "caller", "rev")

	// The caller moves a1→a2: callee frames to a1 follow it, caller frames
	// to b1 are untouched.
	wantPkts++ // migrate's own media frame
	wantBytes += int64(len(mediaWire(t, sess, caller, b1, "move")))
	migrate(t, r, sess, caller, a2, b1, true)
	media(b1, callee, a1, "rev2")
	expectMedia(t, a2, "moved caller", "rev2")
	media(a2, caller, b1, "fwd2")
	expectMedia(t, b1, "callee", "fwd2")

	// The callee moves b1→b2: caller frames to b1 follow it, and the
	// caller's own pin still answers for a1.
	wantPkts++
	wantBytes += int64(len(mediaWire(t, sess, callee, a2, "move")))
	migrate(t, r, sess, callee, b2, a2, true)
	media(a2, caller, b1, "fwd3")
	expectMedia(t, b2, "moved callee", "fwd3")
	media(b2, callee, a1, "rev3")
	expectMedia(t, a2, "moved caller", "rev3")

	ss, ok := r.Session(sess)
	if !ok || ss.Packets != wantPkts || ss.Bytes != wantBytes {
		t.Errorf("session accounting = %+v (%v), want %d packets %d bytes", ss, ok, wantPkts, wantBytes)
	}
	if r.Sessions() != 1 {
		t.Errorf("sessions = %d, want 1", r.Sessions())
	}
	expectQuiet(t, a1, "stale caller address")
	expectQuiet(t, b1, "stale callee address")
}

// mediaWire is the wire form sendMedia writes.
func mediaWire(t *testing.T, sess uint64, tok transport.Token, dst net.PacketConn, payload string) []byte {
	t.Helper()
	f := transport.Frame{Session: sess, Kind: transport.KindMedia, Token: tok, Payload: []byte(payload)}
	if err := f.SetRoute([]*net.UDPAddr{udpAddr(dst.LocalAddr())}); err != nil {
		t.Fatal(err)
	}
	return f.Marshal(nil)
}

// TestThirdTokenBindsNothing: caller and callee each mint one token per
// call, so a session has room for two. A third distinct token is forwarded
// and accounted like any frame, but gets no binding: it is never
// challenged, and it displaces neither of the two that are bound.
func TestThirdTokenBindsNothing(t *testing.T) {
	r := startRelay(t, 1)
	a, b, c1, c2, a2 := listen(t), listen(t), listen(t), listen(t), listen(t)
	for _, conn := range []net.PacketConn{a, b, c1, c2, a2} {
		defer conn.Close()
	}
	t1, t2, t3 := transport.Token{1}, transport.Token{2}, transport.Token{3}
	const sess = 9
	sendMedia(t, a, r, sess, t1, b.LocalAddr(), "t1")
	expectMedia(t, b, "b", "t1")
	sendMedia(t, b, r, sess, t2, a.LocalAddr(), "t2")
	expectMedia(t, a, "a", "t2")

	sendMedia(t, c1, r, sess, t3, b.LocalAddr(), "t3")
	expectMedia(t, b, "b", "t3")
	sendMedia(t, c2, r, sess, t3, b.LocalAddr(), "t3-moved")
	expectMedia(t, b, "b", "t3-moved")
	expectQuiet(t, c2, "third token's new address (a binding would have challenged it)")
	if ss, _ := r.Session(sess); ss.Packets != 4 {
		t.Errorf("session packets = %d, want 4", ss.Packets)
	}
	if got := r.challenges.Load(); got != 0 {
		t.Errorf("challenges = %d, want 0", got)
	}

	// The first two bindings still work.
	migrate(t, r, sess, t1, a2, b, true)
	sendTo(t, b, r, sess, a, "to-a")
	expectMedia(t, a2, "moved first endpoint", "to-a")
}

// TestSetDrainingNudgesBoundEndpoints: entering drain nudges exactly the
// endpoints that hold a binding — each at its validated address, under its
// own token — and nobody else.
func TestSetDrainingNudgesBoundEndpoints(t *testing.T) {
	r := startRelay(t, 1)
	a, a2, b, plain, sink := listen(t), listen(t), listen(t), listen(t), listen(t)
	for _, conn := range []net.PacketConn{a, a2, b, plain, sink} {
		defer conn.Close()
	}
	caller, callee := transport.Token{0xCA}, transport.Token{0xCE}
	sendMedia(t, a, r, 1, caller, b.LocalAddr(), "fwd")
	expectMedia(t, b, "callee", "fwd")
	sendMedia(t, b, r, 1, callee, a.LocalAddr(), "rev")
	expectMedia(t, a, "caller", "rev")
	migrate(t, r, 1, caller, a2, b, true)
	sendTo(t, plain, r, 2, sink, "tokenless")
	expectMedia(t, sink, "sink", "tokenless")

	r.SetDraining(true)
	for _, want := range []struct {
		at  net.PacketConn
		tok transport.Token
	}{{a2, caller}, {b, callee}} {
		got := recvFrame(t, want.at, time.Second)
		if got == nil || got.Kind != transport.KindDrain || got.Session != 1 || got.Token != want.tok {
			t.Fatalf("drain nudge for token %x: got %+v", want.tok[0], got)
		}
	}
	if got := r.drainNudges.Load(); got != 2 {
		t.Errorf("drain nudges = %d, want 2", got)
	}
	for who, conn := range map[string]net.PacketConn{"stale caller address": a, "tokenless sender": plain, "sink": sink} {
		expectQuiet(t, conn, who)
	}
}

// TestMovedFromKeepsFirstAndRecent: past maxMoved moves the endpoint still
// answers for the address it was first bound at (the only one a caller ever
// writes for its callee) and for the most recent ones; the middle goes.
func TestMovedFromKeepsFirstAndRecent(t *testing.T) {
	addr := func(i int) transport.Addr { return transport.Addr{IP: [4]byte{10, 0, 0, 1}, Port: uint16(5000 + i)} }
	ss := &session{}
	e := &ss.ends[1]
	e.token = transport.Token{1}
	const moves = maxMoved + 3
	for i := 0; i < moves; i++ {
		e.movedFrom(addr(i))
		e.movedFrom(addr(i)) // a repeat takes no second slot
		e.addr = addr(i + 1)
	}
	for i := 0; i <= moves; i++ {
		want := addr(i) // forgotten: delivered as addressed
		if i == 0 || i >= moves-(maxMoved-1) {
			want = addr(moves)
		}
		if got := ss.repin(addr(i)); got != want {
			t.Errorf("repin(address %d) = %v, want %v", i, got, want)
		}
	}
}
