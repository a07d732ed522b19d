package relay

import (
	"bytes"
	"net"
	"net/netip"
	"testing"
	"time"

	"repro/internal/transport"
)

// memConn is an in-memory PacketConn that records every write.
type memConn struct {
	sent []memWrite
}

type memWrite struct {
	to  netip.AddrPort
	pkt []byte
}

func (c *memConn) ReadFrom(b []byte) (int, net.Addr, error) { return 0, nil, net.ErrClosed }
func (c *memConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	return 0, netip.AddrPort{}, net.ErrClosed
}
func (c *memConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	return c.WriteToUDPAddrPort(b, addr.(*net.UDPAddr).AddrPort())
}
func (c *memConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	c.sent = append(c.sent, memWrite{addr, append([]byte(nil), b...)})
	return len(b), nil
}
func (c *memConn) Close() error                       { return nil }
func (c *memConn) LocalAddr() net.Addr                { return &net.UDPAddr{} }
func (c *memConn) SetDeadline(t time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(t time.Time) error { return nil }

// fuzzSource picks a datagram's source from sel: bits 0–1 choose the
// spelling (IPv4, 4-in-6, IPv6, zero), bits 2–3 the host, so one host
// arrives both as IPv4 and as 4-in-6.
func fuzzSource(sel byte) netip.AddrPort {
	host := sel >> 2 & 3
	v4 := netip.AddrFrom4([4]byte{10, 9, 0, 1 + host})
	port := 4000 + uint16(host)
	switch sel & 3 {
	case 0:
		return netip.AddrPortFrom(v4, port)
	case 1:
		return netip.AddrPortFrom(netip.AddrFrom16(v4.As16()), port)
	case 2:
		return netip.AddrPortFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: 1 + host}), port)
	}
	return netip.AddrPort{}
}

// fuzzHop is the route hop that names host.
func fuzzHop(host byte) *net.UDPAddr {
	return &net.UDPAddr{IP: net.IPv4(10, 9, 0, 1+host), Port: 4000 + int(host)}
}

// fuzzRecord appends one datagram to a FuzzRelayForward script.
func fuzzRecord(script []byte, sel byte, f transport.Frame, route ...*net.UDPAddr) []byte {
	if err := f.SetRoute(route); err != nil {
		panic(err)
	}
	pkt := f.Marshal(nil)
	return append(append(script, sel, byte(len(pkt))), pkt...)
}

// FuzzRelayForward runs scripts of datagrams through the relay's
// per-datagram step over an in-memory conn. A script is a sequence of
// records sel(1) len(1) datagram(len): sel picks the source (fuzzSource),
// and with bit 7 set the script answers the path challenge the datagram
// drew, from the address it was sent to. It checks that every datagram
// counts exactly once as forwarded, consumed or dropped, and that a
// forwarded datagram goes, as its frame minus the popped hop, to the
// frame's first route hop or — on the final hop — to an address that
// answered a challenge.
func FuzzRelayForward(f *testing.F) {
	tok := transport.Token{0xF0}
	media := transport.Frame{Session: 9, Kind: transport.KindMedia, Token: tok, Payload: []byte("voice")}
	reverse := transport.Frame{Session: 9, Kind: transport.KindMedia, Payload: []byte("back")}
	var s []byte
	s = fuzzRecord(s, 0<<2|0, media, fuzzHop(1))               // host 0 binds the token
	s = fuzzRecord(s, 0<<2|1, media, fuzzHop(1))               // the same host as 4-in-6: no move
	s = fuzzRecord(s, 0x80|2<<2|0, media, fuzzHop(1))          // rebinds to host 2, which answers
	s = fuzzRecord(s, 1<<2|0, reverse, fuzzHop(0))             // a frame naming host 0 lands on host 2
	s = fuzzRecord(s, 1<<2|1, reverse, fuzzHop(3), fuzzHop(0)) // transit: not re-pinned
	f.Add(s)
	s = fuzzRecord(nil, 0<<2|1, media, fuzzHop(1))
	s = fuzzRecord(s, 0x80|3<<2|1, media, fuzzHop(1))
	s = fuzzRecord(s, 1<<2|0, reverse, fuzzHop(0))
	s = fuzzRecord(s, 2<<2|2, media, fuzzHop(1)) // IPv6: forwarded, binds nothing
	s = fuzzRecord(s, 3, media, fuzzHop(1))      // zero source
	s = fuzzRecord(s, 0, transport.Frame{Session: 9, Kind: transport.KindKeepalive, Token: tok})
	s = fuzzRecord(s, 0, transport.Frame{Session: 9, Kind: transport.KindPathResponse, Token: tok, Payload: make([]byte, transport.PathChallengeLen)})
	s = fuzzRecord(s, 0, transport.Frame{Session: 9, Kind: transport.KindMedia})
	f.Add(append(s, 0, 3, 'V', 'C', 0))

	f.Fuzz(func(t *testing.T, script []byte) {
		conn := &memConn{}
		n := New(1, conn)
		out := make([]byte, 0, 512)
		var fr transport.Frame
		seen := map[netip.AddrPort]bool{}      // unmapped sources so far
		validated := map[netip.AddrPort]bool{} // addresses that answered a challenge

		step := func(pkt []byte, src netip.AddrPort) {
			packets, dropped := n.packets.Load(), n.dropped.Load()
			consumed := n.keepalives.Load() + n.pathOK.Load()
			failed := n.pathFail.Load()
			w0 := len(conn.sent)
			n.handle(pkt, src, &out, &fr)

			var in transport.Frame
			decoded := in.Unmarshal(pkt) == nil
			fwd, drop := n.packets.Load()-packets, n.dropped.Load()-dropped
			cons := n.keepalives.Load() + n.pathOK.Load() - consumed
			if decoded && len(in.Route) == 0 && in.Kind == transport.KindPathResponse {
				// A failed validation is consumed too. (An exhausted
				// challenge episode also counts a failure, on any frame,
				// so only a path response's failure is its own.)
				cons += n.pathFail.Load() - failed
			}
			if fwd+drop+cons != 1 {
				t.Fatalf("datagram %x from %v: forwarded %d, dropped %d, consumed %d", pkt, src, fwd, drop, cons)
			}
			if fwd == 1 {
				w := conn.sent[w0]
				hop := in.Route[0].AddrPort()
				repinned := len(in.Route) == 1 && seen[hop] && validated[w.to]
				if w.to != hop && !repinned {
					t.Fatalf("frame with first hop %v sent to %v", hop, w.to)
				}
				var got transport.Frame
				if err := got.Unmarshal(w.pkt); err != nil || got.Session != in.Session ||
					len(got.Route) != len(in.Route)-1 || !bytes.Equal(got.Payload, in.Payload) {
					t.Fatalf("forwarded %x for %x", w.pkt, pkt)
				}
			}
			seen[netip.AddrPortFrom(src.Addr().Unmap(), src.Port())] = true
		}

		for len(script) >= 2 {
			sel, size := script[0], int(script[1])
			script = script[2:]
			size = min(size, len(script))
			pkt := script[:size]
			script = script[size:]
			w0 := len(conn.sent)
			step(pkt, fuzzSource(sel))
			if sel&0x80 == 0 {
				continue
			}
			for _, w := range conn.sent[w0:] {
				var ch transport.Frame
				if ch.Unmarshal(w.pkt) != nil || ch.Kind != transport.KindPathChallenge || len(ch.Route) != 0 {
					continue
				}
				resp := transport.Frame{Session: ch.Session, Kind: transport.KindPathResponse, Token: ch.Token, Payload: ch.Payload}
				before := n.Migrations()
				step(resp.Marshal(nil), w.to)
				if n.Migrations() > before {
					validated[w.to] = true
				}
			}
		}
	})
}
