package transport

import (
	"net"
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/quality"
)

func udp(ip string, port int) *net.UDPAddr {
	return &net.UDPAddr{IP: net.ParseIP(ip), Port: port}
}

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Session: 0xCAFEBABE, Kind: KindMedia, Payload: []byte("media")}
	if err := f.SetRoute([]*net.UDPAddr{udp("127.0.0.1", 5000), udp("10.0.0.2", 6000)}); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReply([]*net.UDPAddr{udp("192.168.1.1", 7000)}); err != nil {
		t.Fatal(err)
	}
	wire := f.Marshal(nil)
	var g Frame
	if err := g.Unmarshal(wire); err != nil {
		t.Fatal(err)
	}
	if g.Session != f.Session || g.Kind != f.Kind || string(g.Payload) != "media" {
		t.Errorf("mismatch: %+v", g)
	}
	if got := g.Route[0].UDPAddr().String(); got != "127.0.0.1:5000" {
		t.Errorf("next hop = %s", got)
	}
	g.PopHop()
	if got := g.Route[0].UDPAddr().String(); got != "10.0.0.2:6000" {
		t.Errorf("second hop = %s", got)
	}
	g.PopHop()
	if len(g.Route) != 0 {
		t.Error("exhausted route should be empty")
	}
	g.PopHop() // must not panic on empty route
	reply := g.ReplyAddrs()
	if len(reply) != 1 || reply[0].String() != "192.168.1.1:7000" {
		t.Errorf("reply route = %v", reply)
	}
}

func TestFrameDirectNoHops(t *testing.T) {
	f := Frame{Session: 1, Kind: KindReport, Payload: []byte{1, 2, 3}}
	var g Frame
	if err := g.Unmarshal(f.Marshal(nil)); err != nil {
		t.Fatal(err)
	}
	if len(g.Route) != 0 || len(g.ReplyAddrs()) != 0 {
		t.Error("direct frame should have empty routes")
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	var f Frame
	cases := [][]byte{
		nil,
		make([]byte, 5),
		[]byte("not a frame at all"),
		func() []byte { // bad hop count
			g := Frame{Session: 1}
			w := g.Marshal(nil)
			w[headerLen] = 200
			return w
		}(),
		func() []byte { // truncated route
			g := Frame{Session: 1}
			g.SetRoute([]*net.UDPAddr{udp("1.2.3.4", 5)})
			return g.Marshal(nil)[:headerLen+2]
		}(),
		// The retired "VA" and "VB" headers: session 7, one hop to
		// 10.0.0.1:7000, no reply hops, payload "x".
		{0x56, 0x41, 0, 0, 0, 0, 0, 0, 0, 7, KindMedia, 1, 10, 0, 0, 1, 0x1b, 0x58, 0, 'x'},
		{0x56, 0x42, 0, 0, 0, 0, 0, 0, 0, 7, KindMedia, 0x84, 1, 10, 0, 0, 1, 0x1b, 0x58, 0, 'x'},
	}
	for i, c := range cases {
		if err := f.Unmarshal(c); err != ErrFrame {
			t.Errorf("case %d: err = %v, want ErrFrame", i, err)
		}
	}
}

func TestFrameTooManyHops(t *testing.T) {
	var f Frame
	hops := make([]*net.UDPAddr, MaxHops+1)
	for i := range hops {
		hops[i] = udp("127.0.0.1", 1000+i)
	}
	if err := f.SetRoute(hops); err == nil {
		t.Error("oversized route accepted")
	}
}

func TestFrameIPv6Rejected(t *testing.T) {
	var f Frame
	if err := f.SetRoute([]*net.UDPAddr{udp("::1", 80)}); err == nil {
		t.Error("IPv6 hop accepted by IPv4 wire format")
	}
}

func TestAddrRoundTrip(t *testing.T) {
	a := udp("203.0.113.9", 12345)
	w, ok := AddrFrom(a)
	if !ok {
		t.Fatal("IPv4 UDP address rejected")
	}
	if back := w.UDPAddr(); back.String() != a.String() {
		t.Errorf("round trip: %s vs %s", back, a)
	}
	// The value form round-trips without allocating, and a 4-in-6
	// spelling of the same peer converts to the same Addr.
	var ap netip.AddrPort
	if allocs := testing.AllocsPerRun(100, func() { ap = w.AddrPort() }); allocs != 0 {
		t.Errorf("AddrPort allocates %v", allocs)
	}
	if ap.String() != a.String() {
		t.Errorf("AddrPort: %s vs %s", ap, a)
	}
	if back, ok := AddrFromAddrPort(ap); !ok || back != w {
		t.Errorf("AddrFromAddrPort(%s) = %v, %v", ap, back, ok)
	}
	if back, ok := AddrFromAddrPort(netip.MustParseAddrPort("[::ffff:203.0.113.9]:12345")); !ok || back != w {
		t.Errorf("4-in-6 peer converts to %v, %v; want %v", back, ok, w)
	}
	// Comparable: equal addresses are one map key, a port apart is two.
	w2, _ := AddrFrom(udp("203.0.113.9", 12346))
	if m := map[Addr]bool{w: true, w2: true}; len(m) != 2 || !m[Addr{IP: [4]byte{203, 0, 113, 9}, Port: 12345}] {
		t.Errorf("map keyed by Addr: %v", m)
	}
	if _, ok := AddrFrom(udp("::1", 80)); ok {
		t.Error("IPv6 address accepted")
	}
	if _, ok := AddrFrom(&net.TCPAddr{IP: net.IPv4(1, 2, 3, 4), Port: 5}); ok {
		t.Error("non-UDP address accepted")
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(session uint64, kind uint8, payload []byte) bool {
		in := Frame{Session: session, Kind: kind, Payload: payload}
		var out Frame
		if err := out.Unmarshal(in.Marshal(nil)); err != nil {
			return false
		}
		return out.Session == session && out.Kind == kind && string(out.Payload) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWireOptionRoundTrip(t *testing.T) {
	opts := []netsim.Option{
		netsim.DirectOption(),
		netsim.BounceOption(7),
		netsim.TransitOption(3, 9),
	}
	for _, o := range opts {
		if got := ToWireOption(o).Option(); got != o {
			t.Errorf("round trip %v -> %v", o, got)
		}
	}
	if (WireOption{Kind: "???"}).Option() != netsim.DirectOption() {
		t.Error("unknown kind should map to direct")
	}
}

func TestWireMetricsRoundTrip(t *testing.T) {
	m := quality.Metrics{RTTMs: 123.4, LossRate: 0.05, JitterMs: 9.1}
	if got := ToWireMetrics(m).Metrics(); got != m {
		t.Errorf("round trip %+v -> %+v", m, got)
	}
}
