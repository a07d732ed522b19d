package wal

import (
	"bytes"
	"testing"
)

// FuzzWALDecode hammers the frame decoders with arbitrary bytes — torn
// tails, truncations, bit flips, hostile length prefixes. The decoder must
// never panic and never over-read, and a successfully decoded frame must
// re-encode to exactly the bytes it consumed (so corruption can't sneak
// through the CRC and still round-trip).
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeFrame(nil, Record{Type: 1, Data: []byte("report")}))
	f.Add(EncodeFrame(nil, Record{Type: 9, Data: bytes.Repeat([]byte{0xAB}, 300)}))
	// Torn tail: valid frame followed by a prefix of another.
	torn := EncodeFrame(nil, Record{Type: 2, Data: []byte("whole")})
	torn = append(torn, EncodeFrame(nil, Record{Type: 3, Data: []byte("partial")})[:9]...)
	f.Add(torn)
	// Hostile length prefix claiming 4 GiB.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1})
	// Zero-length payload (invalid: payload always carries a type byte).
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		// The stream decoder (segment tail, standby stream) must agree with
		// the buffer decoder frame for frame, reusing one buffer throughout.
		stream := bytes.NewReader(data)
		var frame []byte
		for {
			rec, n, err := DecodeFrame(rest)
			var serr error
			if frame, serr = readFrame(stream, frame); (serr == nil) != (err == nil) {
				t.Fatalf("DecodeFrame err %v but readFrame err %v", err, serr)
			}
			if err == nil && !bytes.Equal(frame, rest[:n]) {
				t.Fatalf("readFrame returned %x, DecodeFrame consumed %x", frame, rest[:n])
			}
			if err != nil {
				// Errors must be one of the two sentinel families and must
				// not consume input.
				if n != 0 {
					t.Fatalf("error %v consumed %d bytes", err, n)
				}
				break
			}
			if n < frameHeaderLen+1 || n > len(rest) {
				t.Fatalf("decoded frame claims %d of %d bytes", n, len(rest))
			}
			// Round-trip: re-encoding must reproduce the consumed bytes.
			again := EncodeFrame(nil, rec)
			if !bytes.Equal(again, rest[:n]) {
				t.Fatalf("re-encode mismatch: %x vs %x", again, rest[:n])
			}
			rest = rest[n:]
		}
	})
}
