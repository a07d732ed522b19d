package wal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// FuzzWALRecover holds the open-time segment scan to the whole-buffer
// DecodeFrame loop: arbitrary bytes behind valid frames must give the
// same record count and truncation offset for a tail segment, and for a
// sealed one the same verdict (ErrTruncated or ErrCorrupt) at the same
// record and offset.
func FuzzWALRecover(f *testing.F) {
	frame := EncodeFrame(nil, Record{Type: 2, Data: []byte("next")})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{})
	f.Add(uint8(2), frame[:9])                                     // torn frame
	f.Add(uint8(1), []byte{0x00, 0xF0, 0x00, 0x00, 1, 2, 3, 4, 5}) // 15 MiB claim, 1 byte behind
	f.Add(uint8(4), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1}) // over the cap
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 0})                // zero-length payload
	flipped := bytes.Clone(frame)
	flipped[frameHeaderLen+1] ^= 0x01
	f.Add(uint8(5), append(flipped, frame...)) // CRC mismatch, then a good frame
	f.Add(uint8(2), []byte{1, 2, 3})           // short header

	dir := f.TempDir()
	r := bufio.NewReaderSize(nil, readWindow)
	f.Fuzz(func(t *testing.T, valid uint8, junk []byte) {
		var data []byte
		for lsn := uint64(1); lsn <= uint64(valid%8); lsn++ {
			data = EncodeFrame(data, tailRec(lsn))
		}
		data = append(data, junk...)

		n, off := 0, 0
		var want error
		for off < len(data) {
			_, adv, err := DecodeFrame(data[off:])
			if err != nil {
				want = err
				break
			}
			off += adv
			n++
		}

		path := filepath.Join(dir, "0000000000000001.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := recoverSegment(r, &segment{first: 1, path: path}, false)
		switch {
		case want == nil && err != nil:
			t.Fatalf("sealed scan: %v; DecodeFrame found %d clean records", err, n)
		case want != nil && err == nil:
			t.Fatalf("sealed scan accepted what DecodeFrame rejects at record %d offset %d: %v", n, off, want)
		case want != nil && (errors.Is(err, ErrTruncated) != errors.Is(want, ErrTruncated) ||
			errors.Is(err, ErrCorrupt) != errors.Is(want, ErrCorrupt) ||
			!strings.Contains(err.Error(), fmt.Sprintf("record %d at offset %d:", n, off))):
			t.Fatalf("sealed scan: %v; DecodeFrame: record %d at offset %d: %v", err, n, off, want)
		}

		got, err := recoverSegment(r, &segment{first: 1, path: path}, true)
		if err != nil || got != n {
			t.Fatalf("tail scan: %d records, err %v; DecodeFrame found %d", got, err, n)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != int64(off) {
			t.Fatalf("tail scan left %d bytes, DecodeFrame stops at %d", st.Size(), off)
		}
	})
}
