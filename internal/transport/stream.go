package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"slices"
)

// The control stream (DESIGN.md §15) carries choose and report over one
// persistent connection instead of one HTTP exchange each. A client opens
// it with an HTTP/1.1 Upgrade — GET ControlPath with "Connection: Upgrade"
// and "Upgrade: ControlProtocol" — on the listener the controller already
// serves. After the 101 the connection carries frames, strictly one
// response per request, in order:
//
//	request:  u32 len | u8 op      | i32 src | i32 dst | body
//	response: u32 len | u16 status | body
//
// Integers are big-endian and len counts the body only, at most
// MaxBodyBytes. The pair rides in the request header, so a router or a
// shard's ownership check reads it without touching the body. The bodies
// are fixed-layout binary (control_binary.go): a choose carries its
// candidates and repair schemes, a report its option, metrics and scheme.
// The status is the HTTP code the exchange would have had: 200 carries
// the binary reply (a choose's decision; nothing for a report), 307 the
// owning shard's base URL, every other code the error text (a 503 implies
// Retry-After: 1). The POST endpoints keep JSON.

// ControlPath is the endpoint a control stream is upgraded from.
const ControlPath = "/v1/control"

// ControlProtocol is the Upgrade token of the control stream.
const ControlProtocol = "via-control/2"

// Frame header sizes: the length prefix plus the op and the pair, or plus
// the status.
const (
	RequestHeaderLen  = 13
	ResponseHeaderLen = 6
)

// Op names the operation a request frame carries.
type Op uint8

// The two operations a control stream carries.
const (
	OpChoose Op = 1
	OpReport Op = 2
)

// Path is the POST endpoint that carries op over plain HTTP; "" for an
// unknown op.
func (op Op) Path() string {
	switch op {
	case OpChoose:
		return "/v1/choose"
	case OpReport:
		return "/v1/report"
	}
	return ""
}

// ErrFrameTooLarge is the frame readers' answer to a length prefix beyond
// MaxBodyBytes (and PutRequestHeader's and PutResponseHeader's to such a
// body): the frame is refused before anything is allocated for it.
var ErrFrameTooLarge = errors.New("transport: control frame body exceeds 1 MiB")

// PutRequestHeader fills in the header of a request frame for op on the
// pair (src, dst): frame holds RequestHeaderLen reserved bytes followed by
// the body.
func PutRequestHeader(frame []byte, op Op, src, dst int32) error {
	if err := putLength(frame, RequestHeaderLen); err != nil {
		return err
	}
	frame[4] = byte(op)
	binary.BigEndian.PutUint32(frame[5:], uint32(src))
	binary.BigEndian.PutUint32(frame[9:], uint32(dst))
	return nil
}

// PutResponseHeader fills in the header of a response frame: frame holds
// ResponseHeaderLen reserved bytes followed by the body.
func PutResponseHeader(frame []byte, status int) error {
	if err := putLength(frame, ResponseHeaderLen); err != nil {
		return err
	}
	binary.BigEndian.PutUint16(frame[4:], uint16(status))
	return nil
}

func putLength(frame []byte, hdrLen int) error {
	n := len(frame) - hdrLen
	if n > MaxBodyBytes {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	return nil
}

// ReadRequestFrame reads one request frame from r: its op, its pair and
// its body. The body is read into buf's backing array from its start
// (buf's contents are overwritten), so a caller that passes the previous
// body back in reuses its capacity. A clean end of stream before the frame
// is io.EOF; one inside it, io.ErrUnexpectedEOF.
func ReadRequestFrame(r io.Reader, buf []byte) (op Op, src, dst int32, body []byte, err error) {
	hdr, body, err := readFrame(r, buf, RequestHeaderLen)
	return Op(hdr[4]), int32(binary.BigEndian.Uint32(hdr[5:])), int32(binary.BigEndian.Uint32(hdr[9:])), body, err
}

// ReadResponseFrame reads one response frame from r, as ReadRequestFrame
// reads a request.
func ReadResponseFrame(r io.Reader, buf []byte) (status int, body []byte, err error) {
	hdr, body, err := readFrame(r, buf, ResponseHeaderLen)
	return int(binary.BigEndian.Uint16(hdr[4:])), body, err
}

// minFrameStep is the first step readFrame grows a body by when dst has no
// room for it.
const minFrameStep = 4 << 10

// readFrame reads a header of hdrLen bytes and then the body it announces,
// both into buf, and returns a copy of the header (zero-padded to
// RequestHeaderLen). The length is checked against MaxBodyBytes before buf
// is grown for the body, and the body is then read in steps that at most
// double what has already arrived: a peer that announces 1 MiB and sends a
// few bytes pins a few KiB, not the megabyte.
func readFrame(r io.Reader, buf []byte, hdrLen int) (hdr [RequestHeaderLen]byte, body []byte, err error) {
	in := slices.Grow(buf[:0], hdrLen)[:hdrLen]
	if _, err := io.ReadFull(r, in); err != nil {
		return hdr, in[:0], err
	}
	copy(hdr[:], in)
	n := int(binary.BigEndian.Uint32(in))
	if n > MaxBodyBytes {
		return hdr, in[:0], ErrFrameTooLarge
	}
	body = in[:0]
	for len(body) < n {
		step := min(n-len(body), max(cap(body)-len(body), len(body), minFrameStep))
		body = slices.Grow(body, step)
		if _, err := io.ReadFull(r, body[len(body):len(body)+step]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return hdr, body[:0], err
		}
		body = body[:len(body)+step]
	}
	return hdr, body, nil
}
