package transport

import (
	"bytes"
	"testing"
)

// FuzzFrameV3Unmarshal hammers the decoder with v3-shaped datagrams. The
// relay read loop feeds it raw UDP payloads from unauthenticated sources,
// so malformed tokens, truncated token fields, and magic/version
// confusion must all come back as ErrFrame, and anything accepted must
// round-trip with the token preserved exactly.
func FuzzFrameV3Unmarshal(f *testing.F) {
	var valid Frame
	valid.Session = 42
	valid.Kind = KindMedia
	valid.Repair = 3
	valid.Token = Token{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	valid.Payload = []byte("media")
	wire := valid.Marshal(nil)
	f.Add(wire)
	f.Add(wire[:12])            // magic+session+kind+repair, token cut off
	f.Add(wire[:12+TokenLen-1]) // token truncated by one byte
	f.Add(wire[:12+TokenLen])   // token complete, route count missing

	var keepalive Frame
	keepalive.Session = 7
	keepalive.Kind = KindKeepalive
	keepalive.Token = Token{0xff}
	f.Add(keepalive.Marshal(nil))

	// A retired "VA" magic on an otherwise valid frame.
	short := append([]byte(nil), wire...)
	short[1] = 0x41
	f.Add(short)
	long := append([]byte(nil), valid.Marshal(nil)...)
	long[1] = 0x43
	f.Add(long[:13])

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
		re := fr.Marshal(nil)
		var fr2 Frame
		if err := fr2.Unmarshal(re); err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if fr2.Session != fr.Session || fr2.Kind != fr.Kind ||
			fr2.Repair != fr.Repair || fr2.Token != fr.Token ||
			len(fr2.Route) != len(fr.Route) || len(fr2.Reply) != len(fr.Reply) ||
			!bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("round trip mutated frame: %+v vs %+v", fr, fr2)
		}
	})
}

// FuzzPathChallengeParse exercises the path-challenge payload parser.
// Challenges arrive inside frames from arbitrary sources; the parser must
// reject every length but the fixed one with ErrPathChallenge and must
// preserve accepted payloads bit-exactly (the responder echoes them).
func FuzzPathChallengeParse(f *testing.F) {
	c := PathChallenge{Nonce: 0x0102030405060708, Token: Token{0xaa, 0xbb}}
	wire := c.Marshal(nil)
	f.Add(wire)
	f.Add(wire[:7])
	f.Add(append(bytes.Clone(wire), 0xcc))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var pc PathChallenge
		if err := pc.Unmarshal(data); err != nil {
			if err != ErrPathChallenge {
				t.Fatalf("non-ErrPathChallenge error: %v", err)
			}
			if len(data) == PathChallengeLen {
				t.Fatalf("rejected a fixed-size payload: %x", data)
			}
			return
		}
		if len(data) != PathChallengeLen {
			t.Fatalf("accepted %d-byte payload", len(data))
		}
		re := pc.Marshal(nil)
		if !bytes.Equal(re, data) {
			t.Fatalf("echo would mutate payload: %x vs %x", re, data)
		}
	})
}
