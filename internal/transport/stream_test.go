package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// TestControlFrameRoundTrip: frames written with the Put*Header functions
// read back as the same op, pair or status and body, one after another on
// one reader, reusing one buffer.
func TestControlFrameRoundTrip(t *testing.T) {
	var wire []byte
	bodies := []string{"\x00\x00\x00", ``, "\x00\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\x00"}
	pairs := [][2]int32{{1, 2}, {-1, 1 << 30}, {17, -4}}
	for i, body := range bodies {
		frame := append(make([]byte, RequestHeaderLen), body...)
		if err := PutRequestHeader(frame, Op(i+1), pairs[i][0], pairs[i][1]); err != nil {
			t.Fatal(err)
		}
		wire = append(wire, frame...)
	}
	r := bytes.NewReader(wire)
	var buf []byte
	for i, want := range bodies {
		op, src, dst, body, err := ReadRequestFrame(r, buf)
		if err != nil || op != Op(i+1) || [2]int32{src, dst} != pairs[i] || string(body) != want {
			t.Fatalf("frame %d: op %d pair (%d, %d) body %q err %v; want op %d pair %v body %q", i, op, src, dst, body, err, i+1, pairs[i], want)
		}
		buf = body
	}
	if _, _, _, _, err := ReadRequestFrame(r, buf); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}

	frame := append(make([]byte, ResponseHeaderLen), "http://127.0.0.1:9001"...)
	if err := PutResponseHeader(frame, 307); err != nil {
		t.Fatal(err)
	}
	status, body, err := ReadResponseFrame(bytes.NewReader(frame[:len(frame)-1]), nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated response: status %d body %q err %v, want io.ErrUnexpectedEOF", status, body, err)
	}
	if status, body, err = ReadResponseFrame(bytes.NewReader(frame), nil); err != nil || status != 307 || string(body) != "http://127.0.0.1:9001" {
		t.Fatalf("response: %d %q %v", status, body, err)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestControlFrameBounds: a length prefix beyond MaxBodyBytes is refused
// with ErrFrameTooLarge after reading the header alone, without allocating
// (the destination keeps its capacity); a large announcement grows the
// buffer only as bytes arrive; exactly MaxBodyBytes is accepted, and the
// writers refuse a body beyond it.
func TestControlFrameBounds(t *testing.T) {
	for _, n := range []uint32{MaxBodyBytes + 1, 1 << 31, 1<<32 - 1} {
		hdr := make([]byte, RequestHeaderLen, RequestHeaderLen+8)
		binary.BigEndian.PutUint32(hdr, n)
		wire := append(hdr, "trailing"...)
		for name, read := range map[string]func(io.Reader, []byte) error{
			"request":  func(r io.Reader, dst []byte) error { _, _, _, _, err := ReadRequestFrame(r, dst); return err },
			"response": func(r io.Reader, dst []byte) error { _, _, err := ReadResponseFrame(r, dst); return err },
		} {
			dst := make([]byte, 0, 16)
			var cr countingReader
			allocs := testing.AllocsPerRun(20, func() {
				cr = countingReader{r: bytes.NewReader(wire)}
				if err := read(&cr, dst); !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("%s, length %d: %v, want ErrFrameTooLarge", name, n, err)
				}
			})
			want := RequestHeaderLen
			if name == "response" {
				want = ResponseHeaderLen
			}
			if allocs > 1 || cr.n != want { // the one allocation is the countingReader's reader
				t.Errorf("%s, length %d: %v allocs, read %d bytes; want no body allocation and only the %d-byte header", name, n, allocs, cr.n, want)
			}
		}
	}

	// A frame that announces MaxBodyBytes and is cut short grew its buffer
	// only as far as the bytes that arrived warranted.
	short := append(make([]byte, RequestHeaderLen), "only these bytes arrived"...)
	binary.BigEndian.PutUint32(short, MaxBodyBytes)
	if _, _, _, body, err := ReadRequestFrame(bytes.NewReader(short), nil); !errors.Is(err, io.ErrUnexpectedEOF) || cap(body) > 4*minFrameStep {
		t.Fatalf("a 1 MiB announcement cut short: %v, buffer capacity %d; want io.ErrUnexpectedEOF and at most %d", err, cap(body), 4*minFrameStep)
	}

	max := append(make([]byte, RequestHeaderLen), make([]byte, MaxBodyBytes)...)
	if err := PutRequestHeader(max, OpReport, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, _, body, err := ReadRequestFrame(bytes.NewReader(max), nil); err != nil || len(body) != MaxBodyBytes {
		t.Fatalf("a MaxBodyBytes body: %d bytes, %v", len(body), err)
	}
	if err := PutRequestHeader(append(max, 0), OpReport, 1, 2); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("writing a body past MaxBodyBytes: %v", err)
	}
	if err := PutResponseHeader(make([]byte, ResponseHeaderLen+MaxBodyBytes+1), 200); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("writing a reply past MaxBodyBytes: %v", err)
	}
}
