// Package transport defines the wire formats shared by the testbed's media
// and control planes:
//
//   - Frame: the media-plane source-routing envelope. The caller writes the
//     full relay route (zero hops = direct, one = bounce, two = transit)
//     plus the reply route the callee should use; each relay pops the next
//     hop and forwards. This is how Via's clients reach a *specific*
//     relay (§3.1: "the caller can reach these relays by explicitly
//     addressing the particular relay(s)").
//
//   - The JSON request/response types of the controller's HTTP API
//     (measurement reports in, relay selections out — the two exchanges
//     §7 budgets per call).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
)

// frameMagic ("VC") opens every frame. The header is magic(2) session(8)
// kind(1) repair(1) token(TokenLen); the route follows (DESIGN.md §17).
const frameMagic = 0x5643

// headerLen is the size of the fixed frame header.
const headerLen = 12 + TokenLen

// TokenLen is the size of the opaque per-call session token every frame
// carries. 128 bits: unguessable by an off-path attacker, cheap to compare.
const TokenLen = 16

// Token is the opaque per-call session token. The zero value means "no
// token".
type Token [TokenLen]byte

// IsZero reports whether the token is unset.
func (t Token) IsZero() bool { return t == Token{} }

// MaxHops bounds the route length (direct=0, bounce=1, transit=2).
const MaxHops = 4

// Frame is the media envelope: the remaining forward route, the route the
// peer should use to reply, and the opaque payload (an RTP packet or a
// receiver report).
//
// Unmarshal stores the routes in a fixed backing array inside the Frame,
// so decoding allocates nothing; consequently a Frame must not be copied
// by value after Unmarshal (the copy's slices alias the original).
type Frame struct {
	Session uint64
	Kind    uint8 // application-defined payload discriminator
	// Repair is the loss-repair scheme byte (rtp.Scheme wire form). Zero
	// means plain forwarding. Relays forward it opaquely.
	Repair uint8
	// Token is the opaque mobility token. Zero means the call did not
	// negotiate one; relays then fall back to address-pinned behavior.
	Token Token
	// Route holds the remaining forwarding targets. The packet's next stop
	// is Route[0]; a relay pops it and sends the rest onward. Empty means
	// the packet is at its final destination.
	Route []Addr
	// Reply is the route the receiver should use for traffic back to the
	// sender (already oriented from the receiver's perspective).
	Reply []Addr
	// Payload aliases the decode buffer.
	Payload []byte

	// hopBuf backs Route (first MaxHops) and Reply (rest) after Unmarshal.
	hopBuf [2 * MaxHops]Addr
}

// PayloadKind values used by the testbed clients.
const (
	KindMedia  = 1 // RTP media packet
	KindReport = 2 // receiver report
	KindNack   = 3 // rtp.NACKRequest: retransmit plea, receiver → sender
	KindFEC    = 4 // rtp.FECPacket: XOR parity over a media group

	// Mobility kinds (DESIGN.md §17). These travel with an empty forward
	// route when addressed to the relay itself: the relay consumes them
	// instead of forwarding.
	KindKeepalive     = 5 // empty payload; refreshes the relay's idle TTL
	KindPathChallenge = 6 // PathChallenge: relay → new source address
	KindPathResponse  = 7 // PathChallenge echoed: client → relay
	KindDrain         = 8 // relay → endpoints: migrate off this relay
)

// Addr is an IPv4 address and UDP port: the one spelling of an endpoint
// that frame routes, the relay's session table and its re-pinning share.
// It is comparable (a map key, ==) and netipLen bytes on the wire.
type Addr struct {
	IP   [4]byte
	Port uint16
}

// netipLen is the wire size of an Addr: ip(4) port(2), big-endian.
const netipLen = 6

// ErrFrame reports a malformed frame.
var ErrFrame = errors.New("transport: malformed frame")

// AddrFrom converts a UDP address. It reports false for what the wire
// cannot carry: a net.Addr that is not a *net.UDPAddr, or a non-IPv4 IP.
func AddrFrom(a net.Addr) (Addr, bool) {
	u, ok := a.(*net.UDPAddr)
	if !ok {
		return Addr{}, false
	}
	return AddrFromAddrPort(u.AddrPort())
}

// AddrFromAddrPort converts a value address. An IPv4-mapped IPv6 address
// (what a dual-stack socket reports for an IPv4 peer) converts to its IPv4
// form; any other non-IPv4 address reports false.
func AddrFromAddrPort(ap netip.AddrPort) (Addr, bool) {
	ip := ap.Addr().Unmap()
	if !ip.Is4() {
		return Addr{}, false
	}
	return Addr{IP: ip.As4(), Port: ap.Port()}, true
}

// AddrPort returns a as a value address, which *net.UDPConn sends to
// without allocating.
func (a Addr) AddrPort() netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4(a.IP), a.Port)
}

// UDPAddr returns a as a newly allocated sendable address.
func (a Addr) UDPAddr() *net.UDPAddr { return net.UDPAddrFromAddrPort(a.AddrPort()) }

// SetRoute assigns the forward route from UDP addresses.
func (f *Frame) SetRoute(addrs []*net.UDPAddr) error {
	return setHops(&f.Route, addrs)
}

// SetReply assigns the reply route from UDP addresses.
func (f *Frame) SetReply(addrs []*net.UDPAddr) error {
	return setHops(&f.Reply, addrs)
}

func setHops(dst *[]Addr, addrs []*net.UDPAddr) error {
	if len(addrs) > MaxHops {
		return fmt.Errorf("transport: %d hops exceeds max %d", len(addrs), MaxHops)
	}
	out := make([]Addr, len(addrs))
	for i, a := range addrs {
		var ok bool
		if out[i], ok = AddrFrom(a); !ok {
			return fmt.Errorf("transport: %v is not IPv4", a.IP)
		}
	}
	*dst = out
	return nil
}

// PopHop removes the next forwarding target, Route[0] (relay-side).
func (f *Frame) PopHop() {
	if len(f.Route) > 0 {
		f.Route = f.Route[1:]
	}
}

// ReplyAddrs returns the reply route as UDP addresses.
func (f *Frame) ReplyAddrs() []*net.UDPAddr {
	out := make([]*net.UDPAddr, len(f.Reply))
	for i, h := range f.Reply {
		out[i] = h.UDPAddr()
	}
	return out
}

// Marshal appends the frame's wire form to dst: the header, then
// nRoute(1) route(6·n) nReply(1) reply(6·n) payload.
func (f *Frame) Marshal(dst []byte) []byte {
	var h [headerLen]byte
	binary.BigEndian.PutUint16(h[0:2], frameMagic)
	binary.BigEndian.PutUint64(h[2:10], f.Session)
	h[10] = f.Kind
	h[11] = f.Repair
	copy(h[12:], f.Token[:])
	dst = append(dst, h[:]...)
	dst = appendHops(dst, f.Route)
	dst = appendHops(dst, f.Reply)
	return append(dst, f.Payload...)
}

// appendHops appends a hop count and the hops.
func appendHops(dst []byte, hops []Addr) []byte {
	dst = append(dst, byte(len(hops)))
	for _, hop := range hops {
		dst = append(dst, hop.IP[:]...)
		dst = binary.BigEndian.AppendUint16(dst, hop.Port)
	}
	return dst
}

// Unmarshal decodes a frame; a datagram without frameMagic is ErrFrame.
// Payload aliases buf; Route and Reply alias the frame's internal backing
// array, so decoding performs no heap allocation — see the Frame doc about
// copying.
func (f *Frame) Unmarshal(buf []byte) error {
	if len(buf) < headerLen || binary.BigEndian.Uint16(buf[0:2]) != frameMagic {
		return ErrFrame
	}
	f.Session = binary.BigEndian.Uint64(buf[2:10])
	f.Kind = buf[10]
	f.Repair = buf[11]
	copy(f.Token[:], buf[12:headerLen])
	off := headerLen
	var err error
	if f.Route, off, err = f.parseHops(buf, off, 0); err != nil {
		return err
	}
	if f.Reply, off, err = f.parseHops(buf, off, MaxHops); err != nil {
		return err
	}
	f.Payload = buf[off:]
	return nil
}

// parseHops decodes a hop count and that many hops into the frame's
// backing array at base.
func (f *Frame) parseHops(buf []byte, off, base int) ([]Addr, int, error) {
	if off >= len(buf) {
		return nil, 0, ErrFrame
	}
	n := int(buf[off])
	off++
	if n > MaxHops || off+n*netipLen > len(buf) {
		return nil, 0, ErrFrame
	}
	hops := f.hopBuf[base : base+n : base+n]
	for i := range hops {
		copy(hops[i].IP[:], buf[off:off+4])
		hops[i].Port = binary.BigEndian.Uint16(buf[off+4 : off+6])
		off += netipLen
	}
	return hops, off, nil
}
