package relay

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"repro/internal/transport"
)

// discardConn is a PacketConn that swallows writes — it isolates the
// relay's own forwarding cost from socket behavior. It has the AddrPort
// methods, as *net.UDPConn does, so the relay uses it without an adapter.
type discardConn struct {
	writes    int64
	bytes     int64
	lastPort  int    // destination port of the latest write
	challenge []byte // payload of the latest path challenge written
	scratch   transport.Frame
}

func (d *discardConn) ReadFrom(b []byte) (int, net.Addr, error) { select {} }
func (d *discardConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	select {}
}
func (d *discardConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	return d.record(b, addr.(*net.UDPAddr).Port)
}
func (d *discardConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	return d.record(b, int(addr.Port()))
}
func (d *discardConn) record(b []byte, port int) (int, error) {
	d.writes++
	d.bytes += int64(len(b))
	d.lastPort = port
	if f := &d.scratch; f.Unmarshal(b) == nil && f.Kind == transport.KindPathChallenge {
		d.challenge = append([]byte(nil), f.Payload...)
	}
	return len(b), nil
}
func (d *discardConn) Close() error                       { return nil }
func (d *discardConn) LocalAddr() net.Addr                { return &net.UDPAddr{} }
func (d *discardConn) SetDeadline(t time.Time) error      { return nil }
func (d *discardConn) SetReadDeadline(t time.Time) error  { return nil }
func (d *discardConn) SetWriteDeadline(t time.Time) error { return nil }

// repairWire builds one v2 media frame with a repair scheme, two forward
// hops, and a reply route — the most allocation-hostile shape the repair
// path produces.
func repairWire(tb testing.TB) []byte {
	tb.Helper()
	f := transport.Frame{Session: 0xFEED, Kind: transport.KindMedia, Repair: 0x84}
	addrs := []*net.UDPAddr{
		{IP: net.IPv4(10, 0, 0, 1), Port: 7001},
		{IP: net.IPv4(10, 0, 0, 2), Port: 7002},
	}
	if err := f.SetRoute(addrs); err != nil {
		tb.Fatal(err)
	}
	if err := f.SetReply(addrs); err != nil {
		tb.Fatal(err)
	}
	f.Payload = make([]byte, 172) // RTP header + 160B voice payload
	return f.Marshal(nil)
}

// TestForwardZeroAlloc asserts the steady-state forwarding path allocates
// nothing per packet, repair frames included (the satellite requirement:
// repair must not add per-packet garbage to relays).
func TestForwardZeroAlloc(t *testing.T) {
	conn := &discardConn{}
	n := New(1, conn)
	wire := repairWire(t)
	src := &net.UDPAddr{IP: net.IPv4(10, 9, 0, 1), Port: 4000}

	out := make([]byte, 0, 64*1024)
	var f transport.Frame
	// Warm up: create the session entry and size the buffers.
	n.handle(wire, src.AddrPort(), &out, &f)

	allocs := testing.AllocsPerRun(500, func() {
		n.handle(wire, src.AddrPort(), &out, &f)
	})
	if allocs != 0 {
		t.Errorf("forwarding allocates %v per packet, want 0", allocs)
	}
	if conn.writes == 0 {
		t.Fatal("nothing was forwarded")
	}
}

// TestForwardZeroAllocV3 repeats the zero-alloc assertion for wire-v3
// frames in their steady state: the token is already bound to the source
// address, so per-packet mobility work is one map lookup and a compare.
func TestForwardZeroAllocV3(t *testing.T) {
	conn := &discardConn{}
	n := New(1, conn)
	f3 := transport.Frame{Session: 0xFEED, Kind: transport.KindMedia, Repair: 0x84,
		Token: transport.Token{1, 2, 3, 4}}
	addrs := []*net.UDPAddr{
		{IP: net.IPv4(10, 0, 0, 1), Port: 7001},
		{IP: net.IPv4(10, 0, 0, 2), Port: 7002},
	}
	if err := f3.SetRoute(addrs); err != nil {
		t.Fatal(err)
	}
	if err := f3.SetReply(addrs); err != nil {
		t.Fatal(err)
	}
	f3.Payload = make([]byte, 172)
	wire := f3.Marshal(nil)
	src := &net.UDPAddr{IP: net.IPv4(10, 9, 0, 1), Port: 4000}

	out := make([]byte, 0, 64*1024)
	var f transport.Frame
	n.handle(wire, src.AddrPort(), &out, &f) // warm up: session + token binding

	allocs := testing.AllocsPerRun(500, func() {
		n.handle(wire, src.AddrPort(), &out, &f)
	})
	if allocs != 0 {
		t.Errorf("v3 forwarding allocates %v per packet, want 0", allocs)
	}

	// The same endpoint validates a move to src2; a reverse frame whose
	// final hop still names src is then re-pinned to src2 on every packet,
	// and that path must not allocate either.
	src2 := &net.UDPAddr{IP: net.IPv4(10, 9, 0, 2), Port: 4002}
	n.handle(wire, src2.AddrPort(), &out, &f) // draws the challenge
	if conn.challenge == nil {
		t.Fatal("no challenge written for the new source address")
	}
	resp := transport.Frame{Session: f3.Session, Kind: transport.KindPathResponse, Token: f3.Token, Payload: conn.challenge}
	n.handle(resp.Marshal(nil), src2.AddrPort(), &out, &f)
	if n.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", n.Migrations())
	}
	rev := transport.Frame{Session: f3.Session, Kind: transport.KindMedia, Repair: 0x84, Payload: make([]byte, 172)}
	if err := rev.SetRoute([]*net.UDPAddr{src}); err != nil {
		t.Fatal(err)
	}
	revWire := rev.Marshal(nil)
	peer := &net.UDPAddr{IP: net.IPv4(10, 9, 0, 9), Port: 4009}
	n.handle(revWire, peer.AddrPort(), &out, &f)
	allocs = testing.AllocsPerRun(500, func() {
		n.handle(revWire, peer.AddrPort(), &out, &f)
	})
	if allocs != 0 {
		t.Errorf("re-pinned final-hop delivery allocates %v per packet, want 0", allocs)
	}
	if conn.lastPort != src2.Port {
		t.Errorf("reverse frame delivered to port %d, want the validated %d", conn.lastPort, src2.Port)
	}
}

// BenchmarkForwardRepairFrame is the repair-path throughput entry for the
// bench-regression harness: one v2 repair frame through the full
// unmarshal → account → re-marshal → send pipeline.
func BenchmarkForwardRepairFrame(b *testing.B) {
	conn := &discardConn{}
	n := New(1, conn)
	wire := repairWire(b)
	src := &net.UDPAddr{IP: net.IPv4(10, 9, 0, 1), Port: 4000}
	out := make([]byte, 0, 64*1024)
	var f transport.Frame
	n.handle(wire, src.AddrPort(), &out, &f)

	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.handle(wire, src.AddrPort(), &out, &f)
	}
}
