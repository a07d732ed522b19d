// Package addrport is datagram I/O on value addresses. A Conn reads each
// datagram's source as a netip.AddrPort and writes to one, as
// *net.UDPConn does, so a forwarding loop over it allocates nothing per
// datagram, where net.PacketConn's ReadFrom builds a *net.UDPAddr and its
// IP slice for every datagram read. The relay forwards on a Conn, and
// wan.Shaper is one.
package addrport

import (
	"net"
	"net/netip"
	"sync"
)

// Conn is a net.PacketConn with *net.UDPConn's value-address methods.
type Conn interface {
	net.PacketConn
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
}

// Adapt returns c as a Conn: c itself when it already has the two
// methods, otherwise c behind a small adapter (test fakes, timing
// wrappers that embed net.PacketConn). The adapter reads through
// c.ReadFrom, so it costs what that costs; it writes through c.WriteTo
// with one reused *net.UDPAddr, so c must not keep the address after
// WriteTo returns, as *net.UDPConn does not.
func Adapt(c net.PacketConn) Conn {
	if ac, ok := c.(Conn); ok {
		return ac
	}
	return &plain{PacketConn: c}
}

// plain adapts a net.PacketConn without the value-address methods.
type plain struct {
	net.PacketConn

	mu sync.Mutex
	ip [16]byte    // guarded by mu; backs to.IP
	to net.UDPAddr // guarded by mu; the destination of the write in progress
}

// ReadFromUDPAddrPort reads through ReadFrom. A source that is not a
// *net.UDPAddr reads as the zero AddrPort.
func (c *plain) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	n, addr, err := c.PacketConn.ReadFrom(b)
	var ap netip.AddrPort
	if u, ok := addr.(*net.UDPAddr); ok {
		ap = u.AddrPort()
	}
	return n, ap, err
}

// WriteToUDPAddrPort writes through WriteTo.
func (c *plain) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ip = addr.Addr().As16() // an IPv4 address in its 4-in-6 form, which net.IP treats as IPv4
	c.to = net.UDPAddr{IP: c.ip[:], Port: int(addr.Port()), Zone: addr.Addr().Zone()}
	return c.PacketConn.WriteTo(b, &c.to)
}
