package transport

import (
	"bytes"
	"net"
	"testing"
)

// FuzzFrameUnmarshal hammers the frame decoder with arbitrary datagrams —
// the relay and agent read loops feed it raw UDP payloads, so it must
// reject malformed input (truncated headers, absurd hop counts, short hop
// lists) with ErrFrame rather than panicking, and anything it accepts
// must re-encode to a decodable equivalent.
func FuzzFrameUnmarshal(f *testing.F) {
	// Seed corpus: a valid direct frame, a routed frame, and assorted
	// malformed prefixes of each.
	var valid Frame
	valid.Session = 42
	valid.Kind = KindMedia
	valid.Payload = []byte("media")
	f.Add(valid.Marshal(nil))

	hop := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9000}
	var routed Frame
	routed.Session = 7
	routed.Kind = KindReport
	if err := routed.SetRoute([]*net.UDPAddr{hop, hop}); err != nil {
		f.Fatal(err)
	}
	if err := routed.SetReply([]*net.UDPAddr{hop}); err != nil {
		f.Fatal(err)
	}
	routed.Payload = []byte("rr")
	wire := routed.Marshal(nil)
	f.Add(wire)
	f.Add(wire[:11])          // truncated header
	f.Add(wire[:headerLen+1]) // header but truncated route
	f.Add([]byte{})           // empty datagram
	f.Add([]byte("not a frame at all"))
	// Claimed route longer than the buffer, and over MaxHops.
	bad := append([]byte(nil), wire...)
	bad[headerLen] = 200
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if err := fr.Unmarshal(data); err != nil {
			if err != ErrFrame {
				t.Fatalf("non-ErrFrame error from Unmarshal: %v", err)
			}
			return
		}
		if len(fr.Route) > MaxHops || len(fr.Reply) > MaxHops {
			t.Fatalf("accepted %d/%d hops past MaxHops", len(fr.Route), len(fr.Reply))
		}
		// Accepted frames must survive a re-encode/re-decode round trip.
		re := fr.Marshal(nil)
		var fr2 Frame
		if err := fr2.Unmarshal(re); err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if fr2.Session != fr.Session || fr2.Kind != fr.Kind ||
			len(fr2.Route) != len(fr.Route) || len(fr2.Reply) != len(fr.Reply) ||
			!bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("round trip mutated frame: %+v vs %+v", fr, fr2)
		}
	})
}
