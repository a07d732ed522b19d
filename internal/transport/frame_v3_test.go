package transport

import (
	"bytes"
	"net"
	"testing"
)

func testToken(b byte) Token {
	var t Token
	for i := range t {
		t[i] = b + byte(i)
	}
	return t
}

func testAddrs(t *testing.T, n int) []*net.UDPAddr {
	t.Helper()
	out := make([]*net.UDPAddr, n)
	for i := range out {
		out[i] = &net.UDPAddr{IP: net.IPv4(10, 0, 0, byte(i+1)), Port: 7000 + i}
	}
	return out
}

// routedFrame builds a frame with nRoute forward hops and nReply reply hops.
func routedFrame(t *testing.T, f Frame, nRoute, nReply int) Frame {
	t.Helper()
	if err := f.SetRoute(testAddrs(t, nRoute)); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReply(testAddrs(t, nReply)); err != nil {
		t.Fatal(err)
	}
	return f
}

func checkRoundTrip(t *testing.T, f Frame) {
	t.Helper()
	wire := f.Marshal(nil)
	if wire[0] != 0x56 || wire[1] != 0x43 {
		t.Fatalf("magic = %x %x, want VC", wire[0], wire[1])
	}
	var g Frame
	if err := g.Unmarshal(wire); err != nil {
		t.Fatal(err)
	}
	if g.Session != f.Session || g.Kind != f.Kind || g.Repair != f.Repair ||
		g.Token != f.Token || len(g.Route) != len(f.Route) || len(g.Reply) != len(f.Reply) ||
		!bytes.Equal(g.Payload, f.Payload) {
		t.Errorf("round trip mismatch: %+v", g)
	}
	if g.Route[1].Port != 7001 || g.Reply[len(g.Reply)-1] != f.Reply[len(f.Reply)-1] {
		t.Errorf("hop ports: %+v %+v", g.Route, g.Reply)
	}
}

// checkTruncated requires every strict prefix shorter than the full fixed
// part (header, route count, route hops, reply count) to be rejected.
func checkTruncated(t *testing.T, f Frame) {
	t.Helper()
	wire := f.Marshal(nil)
	for n := 0; n < headerLen+1+len(f.Route)*netipLen+1; n++ {
		var g Frame
		if err := g.Unmarshal(wire[:n]); err == nil {
			t.Errorf("truncated at %d decoded", n)
		}
	}
}

func checkUnmarshalNoAlloc(t *testing.T, f Frame) {
	t.Helper()
	wire := f.Marshal(nil)
	var g Frame
	allocs := testing.AllocsPerRun(200, func() {
		if err := g.Unmarshal(wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Unmarshal allocates %v per frame", allocs)
	}
}

func TestFrameV3RoundTrip(t *testing.T) {
	checkRoundTrip(t, routedFrame(t, Frame{Session: 42, Kind: KindMedia, Repair: 0x21, Token: testToken(0x40), Payload: []byte("media")}, 2, 1))
}

// The FrameV2 tests cover the tokenless shape the retired "VB" header
// carried: a repair byte and no token. It now rides the one header with a
// zero token.

func TestFrameV2RoundTrip(t *testing.T) {
	checkRoundTrip(t, routedFrame(t, Frame{Session: 42, Kind: KindFEC, Repair: 0x84, Payload: []byte("parity")}, 2, 3))
}

func TestFrameV3RepairZeroStillV3(t *testing.T) {
	// A token without a repair scheme rides the same header, the repair
	// byte carried as zero.
	f := Frame{Session: 3, Kind: KindKeepalive, Token: testToken(1)}
	wire := f.Marshal(nil)
	if wire[0] != 0x56 || wire[1] != 0x43 {
		t.Fatalf("magic = %x %x, want v3", wire[0], wire[1])
	}
	var g Frame
	if err := g.Unmarshal(wire); err != nil {
		t.Fatal(err)
	}
	if g.Repair != 0 || g.Token != f.Token {
		t.Errorf("decode: repair %d token %x", g.Repair, g.Token)
	}
}

func TestFrameV3Truncated(t *testing.T) {
	checkTruncated(t, routedFrame(t, Frame{Session: 1, Kind: KindMedia, Token: testToken(9), Payload: []byte("pay")}, 1, 0))
}

func TestFrameV2Truncated(t *testing.T) {
	checkTruncated(t, Frame{Session: 1, Kind: KindNack, Repair: 1, Payload: []byte("nack")})
}

func TestFrameV3UnmarshalNoAlloc(t *testing.T) {
	checkUnmarshalNoAlloc(t, routedFrame(t, Frame{Session: 9, Kind: KindMedia, Repair: 2, Token: testToken(3), Payload: make([]byte, 160)}, 2, 2))
}

func TestFrameUnmarshalNoAlloc(t *testing.T) {
	checkUnmarshalNoAlloc(t, routedFrame(t, Frame{Session: 9, Kind: KindMedia, Repair: 2, Payload: make([]byte, 160)}, 2, 3))
}

func TestPathChallengeRoundTrip(t *testing.T) {
	c := PathChallenge{Nonce: 0xdeadbeefcafef00d, Token: testToken(0x10)}
	wire := c.Marshal(nil)
	if len(wire) != PathChallengeLen {
		t.Fatalf("wire len %d, want %d", len(wire), PathChallengeLen)
	}
	var d PathChallenge
	if err := d.Unmarshal(wire); err != nil {
		t.Fatal(err)
	}
	if d != c {
		t.Errorf("round trip mismatch: %+v vs %+v", d, c)
	}
	// Fixed-size payload: both truncation and trailing bytes are malformed.
	if err := d.Unmarshal(wire[:len(wire)-1]); err != ErrPathChallenge {
		t.Errorf("short payload: err = %v", err)
	}
	if err := d.Unmarshal(append(bytes.Clone(wire), 0)); err != ErrPathChallenge {
		t.Errorf("long payload: err = %v", err)
	}
}
