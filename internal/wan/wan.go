// Package wan emulates wide-area link characteristics in userspace: a
// net.PacketConn wrapper that applies configurable per-destination
// propagation delay, jitter, and random loss to outgoing datagrams. The
// testbed (§5.5) runs clients, relays, and the controller on loopback and
// uses this shaper in place of the real WAN, with link parameters derived
// from the same synthetic world model as the trace-driven experiments.
//
// Like *net.UDPConn, a Shaper reads and writes value addresses (it is an
// addrport.Conn): ReadFromUDPAddrPort and WriteToUDPAddrPort are the real
// paths, and ReadFrom and WriteTo convert onto them. Its per-destination
// tables are keyed by netip.AddrPort, so an unimpaired write through a
// shaper allocates nothing, and a delayed datagram keeps its destination
// by value however the caller reuses its address. A wrapped conn without
// the value-address methods goes through addrport.Adapt.
package wan

import (
	"math"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addrport"
	"repro/internal/stats"
)

// LinkParams describes one direction of a link.
type LinkParams struct {
	DelayMs  float64 // one-way base delay
	JitterMs float64 // mean absolute per-packet delay variation
	LossRate float64 // independent drop probability in [0, 1]
	// BurstLossRate adds Gilbert-Elliott correlated loss on top of the
	// independent loss: the stationary fraction of packets eaten while
	// the link sits in its bad state.
	BurstLossRate float64
	// MeanBurstLen is the mean bad-state sojourn in packets (<= 1 makes
	// the burst loss effectively independent).
	MeanBurstLen float64
}

// geState is the per-destination Gilbert-Elliott chain: lossless in the
// good state, total loss in bad, stepped once per datagram under s.mu. A
// destination's chain starts good, the zero value.
type geState struct {
	bad bool
}

// step advances the chain one transmission and reports a burst drop.
func (g *geState) step(p LinkParams, rng *stats.RNG) bool {
	pi := p.BurstLossRate
	if pi <= 0 || pi >= 1 {
		return pi >= 1
	}
	l := p.MeanBurstLen
	if l <= 1 {
		return rng.Float64() < pi
	}
	r := 1 / l
	if g.bad {
		if rng.Float64() < r {
			g.bad = false
		}
	} else if rng.Float64() < r*pi/(1-pi) {
		g.bad = true
	}
	return g.bad
}

// Shaper wraps a PacketConn, impairing writes per destination address.
// Reads pass through untouched. It implements net.PacketConn.
//
// Beyond statistical impairment, a shaper supports fault injection: a
// blackholed destination silently eats every datagram (the packet-level
// failure a dead route produces), per destination or for all traffic.
type Shaper struct {
	conn addrport.Conn

	mu        sync.Mutex
	links     map[netip.AddrPort]LinkParams // guarded by mu
	def       LinkParams                    // guarded by mu
	blackhole map[netip.AddrPort]bool       // guarded by mu
	blackAll  bool                          // guarded by mu
	bursts    map[netip.AddrPort]geState    // guarded by mu
	rng       *stats.RNG                    // guarded by mu
	closed    bool                          // guarded by mu
	retired   bool                          // guarded by mu
	pending   sync.WaitGroup

	faultDrops atomic.Int64
	lossDrops  atomic.Int64
	delayed    atomic.Int64
}

// Wrap builds a shaper around conn. With no configured links, packets pass
// through unimpaired.
func Wrap(conn net.PacketConn, seed uint64) *Shaper {
	return &Shaper{
		conn:      addrport.Adapt(conn),
		links:     make(map[netip.AddrPort]LinkParams),
		blackhole: make(map[netip.AddrPort]bool),
		bursts:    make(map[netip.AddrPort]geState),
		rng:       stats.NewRNG(seed).Split("wan"),
	}
}

// key is the table key of a destination: unmapped, so an IPv4 peer
// spelled as a 16-byte net.IP or read on a dual-stack socket is one
// destination.
func key(dst netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(dst.Addr().Unmap(), dst.Port())
}

// parseKey is key for the string form the setters take: a UDP address's
// String(), as netip.ParseAddrPort reads it. A string that does not parse
// names no destination and reports false.
func parseKey(dst string) (netip.AddrPort, bool) {
	ap, err := netip.ParseAddrPort(dst)
	return key(ap), err == nil
}

// SetLink configures impairment for datagrams sent to dst (addr.String()
// form).
func (s *Shaper) SetLink(dst string, p LinkParams) {
	k, ok := parseKey(dst)
	if !ok {
		return
	}
	s.mu.Lock()
	s.links[k] = p
	s.mu.Unlock()
}

// SetDefault configures impairment for destinations with no explicit link.
func (s *Shaper) SetDefault(p LinkParams) {
	s.mu.Lock()
	s.def = p
	s.mu.Unlock()
}

// SetBlackhole turns the fault-injection blackhole for dst on or off:
// while on, every datagram to dst is silently dropped.
func (s *Shaper) SetBlackhole(dst string, on bool) {
	k, ok := parseKey(dst)
	if !ok {
		return
	}
	s.mu.Lock()
	if on {
		s.blackhole[k] = true
	} else {
		delete(s.blackhole, k)
	}
	s.mu.Unlock()
}

// SetBlackholeAll blackholes every destination (a full partition of this
// node) until turned off.
func (s *Shaper) SetBlackholeAll(on bool) {
	s.mu.Lock()
	s.blackAll = on
	s.mu.Unlock()
}

// Blackholed reports whether dst is currently blackholed.
func (s *Shaper) Blackholed(dst string) bool {
	k, _ := parseKey(dst)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blackAll || s.blackhole[k]
}

// FaultDrops returns how many datagrams blackholes have eaten.
func (s *Shaper) FaultDrops() int64 { return s.faultDrops.Load() }

// LossDrops returns how many datagrams statistical loss has eaten
// (impairment, as opposed to injected blackholes).
func (s *Shaper) LossDrops() int64 { return s.lossDrops.Load() }

// Delayed returns how many datagrams were delivered late (delay/jitter).
func (s *Shaper) Delayed() int64 { return s.delayed.Load() }

// Link returns the impairment configured for dst (or the default).
func (s *Shaper) Link(dst string) LinkParams {
	k, _ := parseKey(dst)
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.links[k]; ok {
		return p
	}
	return s.def
}

// WriteTo is WriteToUDPAddrPort for a *net.UDPAddr destination. Any other
// net.Addr converts to the zero AddrPort, which the socket refuses.
func (s *Shaper) WriteTo(b []byte, addr net.Addr) (int, error) {
	u, _ := addr.(*net.UDPAddr)
	return s.WriteToUDPAddrPort(b, u.AddrPort())
}

// WriteToUDPAddrPort impairs and forwards one datagram. Dropped packets
// still report success — the network ate them, not the caller. A datagram
// that is neither dropped nor delayed passes through without allocating.
//
//via:noalloc
func (s *Shaper) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	dst := key(addr)
	s.mu.Lock()
	if s.closed || s.retired {
		s.mu.Unlock()
		return 0, net.ErrClosed
	}
	if s.blackAll || s.blackhole[dst] {
		s.mu.Unlock()
		s.faultDrops.Add(1)
		return len(b), nil // the network ate it; senders cannot tell
	}
	p, ok := s.links[dst]
	if !ok {
		p = s.def
	}
	drop := p.LossRate > 0 && s.rng.Float64() < p.LossRate
	if p.BurstLossRate > 0 {
		g := s.bursts[dst]
		// Step the chain even on an independent drop so burst timing does
		// not depend on the independent-loss draw outcomes.
		if g.step(p, s.rng) {
			drop = true
		}
		s.bursts[dst] = g
	}
	var delay time.Duration
	if !drop && (p.DelayMs > 0 || p.JitterMs > 0) {
		d := p.DelayMs
		if p.JitterMs > 0 {
			d += math.Abs(s.rng.Normal(0, p.JitterMs*math.Sqrt(math.Pi/2)))
		}
		delay = time.Duration(d * float64(time.Millisecond))
	}
	s.mu.Unlock()

	if drop {
		s.lossDrops.Add(1)
		return len(b), nil
	}
	if delay <= 0 {
		return s.conn.WriteToUDPAddrPort(b, dst)
	}
	s.deliverLater(b, dst, delay)
	return len(b), nil
}

// deliverLater sends b to dst after delay. The caller may rewrite its
// buffer before the timer fires, so b is copied; dst is a value, so the
// datagram keeps its own destination.
func (s *Shaper) deliverLater(b []byte, dst netip.AddrPort, delay time.Duration) {
	s.delayed.Add(1)
	buf := make([]byte, len(b))
	copy(buf, b)
	s.pending.Add(1)
	time.AfterFunc(delay, func() {
		defer s.pending.Done()
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if !closed {
			//vialint:ignore errwrap best-effort delayed delivery: the socket may close between the check and the send, which is exactly a dropped packet
			_, _ = s.conn.WriteToUDPAddrPort(buf, dst)
		}
	})
}

// ReadFromUDPAddrPort passes through to the underlying conn. On a retired
// shaper it reports net.ErrClosed as soon as the underlying read
// unblocks, so a reader loop terminates cleanly even though the socket
// itself lingers until the delayed-delivery queue drains.
func (s *Shaper) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	n, addr, err := s.conn.ReadFromUDPAddrPort(b)
	if err != nil {
		s.mu.Lock()
		retired := s.retired
		s.mu.Unlock()
		if retired {
			return 0, netip.AddrPort{}, net.ErrClosed
		}
	}
	return n, addr, err
}

// ReadFrom is ReadFromUDPAddrPort with the source as a *net.UDPAddr (nil
// when the read failed).
func (s *Shaper) ReadFrom(b []byte) (int, net.Addr, error) {
	n, addr, err := s.ReadFromUDPAddrPort(b)
	if !addr.IsValid() {
		return n, nil, err
	}
	return n, net.UDPAddrFromAddrPort(addr), err
}

// Retire begins the graceful teardown a NAT rebind calls for: new reads
// and writes fail immediately (the old binding is gone for the endpoint),
// but datagrams already delayed in flight still deliver — packets in the
// network do not vanish when an endpoint moves. The socket closes in the
// background once they drain. Use Close for abrupt teardown (a crash),
// which must also release the address at once.
func (s *Shaper) Retire() error {
	s.mu.Lock()
	if s.closed || s.retired {
		s.mu.Unlock()
		return nil
	}
	s.retired = true
	s.mu.Unlock()
	// Unblock any reader now; ReadFrom converts the timeout to ErrClosed.
	err := s.conn.SetReadDeadline(time.Now())
	go func() {
		s.pending.Wait()
		s.mu.Lock()
		closed := s.closed
		s.closed = true
		s.mu.Unlock()
		if !closed {
			s.conn.Close() //vialint:ignore errwrap background teardown of a retired socket; nothing is listening for the result
		}
	}()
	return err
}

// Close marks the shaper closed, waits for in-flight delayed packets to
// resolve, and closes the underlying conn.
func (s *Shaper) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.conn.Close()
	s.pending.Wait()
	return err
}

// LocalAddr returns the underlying conn's address.
func (s *Shaper) LocalAddr() net.Addr { return s.conn.LocalAddr() }

// SetDeadline passes through.
func (s *Shaper) SetDeadline(t time.Time) error { return s.conn.SetDeadline(t) }

// SetReadDeadline passes through.
func (s *Shaper) SetReadDeadline(t time.Time) error { return s.conn.SetReadDeadline(t) }

// SetWriteDeadline passes through.
func (s *Shaper) SetWriteDeadline(t time.Time) error { return s.conn.SetWriteDeadline(t) }
