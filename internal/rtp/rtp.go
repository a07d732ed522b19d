// Package rtp implements the media-plane wire format and measurement
// machinery the testbed clients use: RTP-style media packets (RFC 3550
// framing), receiver reports carrying the loss/jitter/RTT-echo fields of
// RTCP RR blocks, the standard interarrival jitter estimator (RFC 3550
// §6.4.1), and sequence-number-based loss accounting with wraparound.
//
// The encode/decode style follows gopacket's DecodingLayer idiom: fixed
// headers decoded in place from byte slices with explicit bounds checks, no
// reflection, no allocation beyond the payload reference.
package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the RTP version encoded in every packet.
const Version = 2

// HeaderLen is the fixed RTP header size we use (no CSRC, no extensions).
const HeaderLen = 12

// Packet is an RTP media packet. Payload aliases the decode buffer.
type Packet struct {
	PayloadType uint8
	Marker      bool
	Seq         uint16
	Timestamp   uint32 // media clock units (we use 90 kHz)
	SSRC        uint32
	Payload     []byte
}

// ErrTruncated reports a buffer too short for the claimed structure.
var ErrTruncated = errors.New("rtp: truncated packet")

// ErrVersion reports a packet with an unexpected RTP version.
var ErrVersion = errors.New("rtp: bad version")

// Marshal appends the packet's wire form to dst and returns the result.
func (p *Packet) Marshal(dst []byte) []byte {
	var h [HeaderLen]byte
	h[0] = Version << 6
	h[1] = p.PayloadType & 0x7f
	if p.Marker {
		h[1] |= 0x80
	}
	binary.BigEndian.PutUint16(h[2:4], p.Seq)
	binary.BigEndian.PutUint32(h[4:8], p.Timestamp)
	binary.BigEndian.PutUint32(h[8:12], p.SSRC)
	dst = append(dst, h[:]...)
	return append(dst, p.Payload...)
}

// Unmarshal decodes a packet from buf. The payload aliases buf.
func (p *Packet) Unmarshal(buf []byte) error {
	if len(buf) < HeaderLen {
		return ErrTruncated
	}
	if buf[0]>>6 != Version {
		return ErrVersion
	}
	p.Marker = buf[1]&0x80 != 0
	p.PayloadType = buf[1] & 0x7f
	p.Seq = binary.BigEndian.Uint16(buf[2:4])
	p.Timestamp = binary.BigEndian.Uint32(buf[4:8])
	p.SSRC = binary.BigEndian.Uint32(buf[8:12])
	p.Payload = buf[HeaderLen:]
	return nil
}

func (p *Packet) String() string {
	return fmt.Sprintf("rtp{pt=%d seq=%d ts=%d ssrc=%x len=%d}",
		p.PayloadType, p.Seq, p.Timestamp, p.SSRC, len(p.Payload))
}

// ReceiverReport carries the feedback a callee sends about a media stream —
// the RTCP RR fields needed to compute sender-side RTT and to corroborate
// loss.
type ReceiverReport struct {
	SSRC         uint32 // stream being reported on
	CumLost      uint32 // cumulative packets lost
	HighestSeq   uint32 // extended highest sequence number received
	JitterMicros uint32 // interarrival jitter, microseconds
	// LastSendNanos echoes the SendNanos of the most recently received
	// media packet; DelayNanos is how long the reporter held it before
	// sending this report. RTT = now − LastSendNanos − DelayNanos.
	LastSendNanos int64
	DelayNanos    int64
}

// rrLen is the receiver report wire size. Unmarshal ignores bytes past it.
const rrLen = 4 + 4 + 4 + 4 + 8 + 8

// Marshal appends the report's wire form to dst.
func (r *ReceiverReport) Marshal(dst []byte) []byte {
	var b [rrLen]byte
	binary.BigEndian.PutUint32(b[0:4], r.SSRC)
	binary.BigEndian.PutUint32(b[4:8], r.CumLost)
	binary.BigEndian.PutUint32(b[8:12], r.HighestSeq)
	binary.BigEndian.PutUint32(b[12:16], r.JitterMicros)
	binary.BigEndian.PutUint64(b[16:24], uint64(r.LastSendNanos))
	binary.BigEndian.PutUint64(b[24:32], uint64(r.DelayNanos))
	return append(dst, b[:]...)
}

// Unmarshal decodes a report.
func (r *ReceiverReport) Unmarshal(buf []byte) error {
	if len(buf) < rrLen {
		return ErrTruncated
	}
	r.SSRC = binary.BigEndian.Uint32(buf[0:4])
	r.CumLost = binary.BigEndian.Uint32(buf[4:8])
	r.HighestSeq = binary.BigEndian.Uint32(buf[8:12])
	r.JitterMicros = binary.BigEndian.Uint32(buf[12:16])
	r.LastSendNanos = int64(binary.BigEndian.Uint64(buf[16:24]))
	r.DelayNanos = int64(binary.BigEndian.Uint64(buf[24:32]))
	return nil
}
