package relay

import (
	"net"
	"testing"
	"time"

	"repro/internal/addrport"
	"repro/internal/transport"
	"repro/internal/wan"
)

func listenUDP4(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// serve starts r and stops it when the test ends.
func serve(t *testing.T, r *Node) {
	t.Helper()
	served := make(chan error, 1)
	go func() { served <- r.Serve() }()
	t.Cleanup(func() {
		r.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
}

// TestServeZeroAllocOnSocket: a relay serving a real loopback socket
// forwards a datagram without one heap allocation, the socket read and
// write included: directly on the *net.UDPConn, and behind an unimpaired
// wan.Shaper. The sender and the sink use the AddrPort calls, so
// everything the loop counts is the relay's.
func TestServeZeroAllocOnSocket(t *testing.T) {
	for _, shaped := range []bool{false, true} {
		name := "socket"
		if shaped {
			name = "shaper"
		}
		t.Run(name, func(t *testing.T) {
			relayConn, sender, sink := listenUDP4(t), listenUDP4(t), listenUDP4(t)
			var conn net.PacketConn = relayConn
			if shaped {
				conn = wan.Wrap(relayConn, 1)
			}
			r := New(1, conn)
			serve(t, r)

			f := transport.Frame{Session: 7, Kind: transport.KindMedia, Repair: 0x84,
				Token: transport.Token{7}, Payload: make([]byte, 172)}
			if err := f.SetRoute([]*net.UDPAddr{sink.LocalAddr().(*net.UDPAddr)}); err != nil {
				t.Fatal(err)
			}
			if err := f.SetReply([]*net.UDPAddr{relayConn.LocalAddr().(*net.UDPAddr), sender.LocalAddr().(*net.UDPAddr)}); err != nil {
				t.Fatal(err)
			}
			wire := f.Marshal(nil)
			to := relayConn.LocalAddr().(*net.UDPAddr).AddrPort()
			buf := make([]byte, 2048)
			if err := sink.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
				t.Fatal(err)
			}
			var sent int64
			var ioErr error
			forward := func() {
				if _, err := sender.WriteToUDPAddrPort(wire, to); err != nil {
					ioErr = err
					return
				}
				sent++
				if _, _, err := sink.ReadFromUDPAddrPort(buf); err != nil {
					ioErr = err
				}
			}
			forward() // creates the session and binds the token
			allocs := testing.AllocsPerRun(200, forward)
			if ioErr != nil {
				t.Fatal(ioErr)
			}
			if allocs != 0 {
				t.Errorf("a forwarded datagram allocates %v times, want 0", allocs)
			}
			if packets, _, dropped := r.Stats(); packets != sent || dropped != 0 {
				t.Errorf("forwarded %d and dropped %d of %d sent", packets, dropped, sent)
			}
		})
	}
}

// TestDualStackRepinsIPv4Endpoint: a relay on a dual-stack socket reads
// its IPv4 peers as 4-in-6 sources. They must bind, validate and re-pin
// exactly as the IPv4 hops that routes carry, or a frame naming a
// rebound endpoint's old address would never follow it.
func TestDualStackRepinsIPv4Endpoint(t *testing.T) {
	relayConn, err := net.ListenUDP("udp", &net.UDPAddr{})
	if err != nil {
		t.Skip("no dual-stack socket:", err)
	}
	if relayConn.LocalAddr().(*net.UDPAddr).IP.To4() != nil {
		relayConn.Close()
		t.Skip("the socket is IPv4-only, so no source reads as 4-in-6")
	}
	r := New(1, relayConn)
	serve(t, r)
	at := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: relayConn.LocalAddr().(*net.UDPAddr).Port}
	c1, c2, peer := listen(t), listen(t), listen(t)
	defer c1.Close()
	defer c2.Close()
	defer peer.Close()

	tok := transport.Token{0x46}
	const sess = 46
	send := func(from net.PacketConn, kind uint8, tok transport.Token, hop net.Addr, payload []byte) {
		t.Helper()
		f := transport.Frame{Session: sess, Kind: kind, Token: tok, Payload: payload}
		if hop != nil {
			if err := f.SetRoute([]*net.UDPAddr{udpAddr(hop)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := from.WriteTo(f.Marshal(nil), at); err != nil {
			t.Fatal(err)
		}
	}

	// Bind from c1; a second frame from c1 is the bound address, not a
	// move, so it draws no challenge.
	send(c1, transport.KindMedia, tok, peer.LocalAddr(), []byte("m1"))
	expectMedia(t, peer, "peer", "m1")
	send(c1, transport.KindMedia, tok, peer.LocalAddr(), []byte("m2"))
	expectMedia(t, peer, "peer", "m2")
	expectQuiet(t, c1, "the bound endpoint")
	send(peer, transport.KindMedia, transport.Token{}, c1.LocalAddr(), []byte("r0"))
	expectMedia(t, c1, "the bound endpoint", "r0")

	// Rebind to c2: challenged there, answered from there, re-pinned.
	send(c2, transport.KindMedia, tok, peer.LocalAddr(), []byte("m3"))
	expectMedia(t, peer, "peer", "m3")
	ch := recvFrame(t, c2, time.Second)
	if ch == nil || ch.Kind != transport.KindPathChallenge || ch.Token != tok {
		t.Fatalf("no path challenge at the new address: %+v", ch)
	}
	send(c2, transport.KindPathResponse, tok, nil, ch.Payload)
	waitFor(t, "migration", func() bool { return r.Migrations() == 1 })

	// A frame whose final hop still names c1 now lands on c2.
	send(peer, transport.KindMedia, transport.Token{}, c1.LocalAddr(), []byte("r1"))
	expectMedia(t, c2, "the moved endpoint", "r1")
	expectQuiet(t, c1, "the old address")
}

// plainPacketConn hides the AddrPort methods of the socket it wraps, as a
// timing wrapper that embeds net.PacketConn does.
type plainPacketConn struct{ net.PacketConn }

// TestPlainPacketConnForwards: a relay over a conn without the AddrPort
// methods forwards through the adapter and answers path challenges, on
// the same forwarding loop.
func TestPlainPacketConnForwards(t *testing.T) {
	var pc net.PacketConn = plainPacketConn{listen(t)}
	if _, ok := pc.(addrport.Conn); ok {
		t.Fatal("the wrapper exposes the AddrPort methods; the adapter would not be used")
	}
	r := New(1, pc)
	serve(t, r)
	c1, c2, peer := listen(t), listen(t), listen(t)
	defer c1.Close()
	defer c2.Close()
	defer peer.Close()

	tok := transport.Token{0x47}
	const sess = 47
	sendMedia(t, c1, r, sess, tok, peer.LocalAddr(), "m1")
	expectMedia(t, peer, "peer", "m1")
	migrate(t, r, sess, tok, c2, peer, true)
	sendTo(t, peer, r, sess, c1, "r1")
	expectMedia(t, c2, "the moved endpoint", "r1")
	expectQuiet(t, c1, "the old address")
	if packets, _, dropped := r.Stats(); packets != 3 || dropped != 0 {
		t.Errorf("forwarded %d and dropped %d, want 3 and 0", packets, dropped)
	}
}
