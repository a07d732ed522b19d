package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Loss repair (DESIGN.md §13): the in-band machinery that recovers media
// packets between a loss and the controller's next routing decision. Three
// schemes, per the SFU guidance the design follows — NACK retransmission
// when the path is reliable (cheap, needs a round trip), RED duplication
// and XOR-FEC when it is not (redundancy paid up front, no round trip):
//
//   - NACK: the receiver tracks sequence gaps and asks the sender to
//     retransmit, bounded by a per-packet retry cap and a deadline so
//     repair never outlives playout. The sender answers from a fixed-size
//     retransmit ring.
//   - RED: every media packet is sent twice; the receiver's duplicate
//     suppression makes the copy invisible unless the original was lost.
//   - FEC: packets are grouped k at a time and one XOR parity packet is
//     emitted per group; any single loss in a group is reconstructed from
//     the parity and the k−1 survivors. Double loss is detected as
//     unrecoverable.
//
// Everything here is deterministic and clock-free: callers thread
// timestamps in as nanosecond integers (virtual time in simulation, wall
// time in the live client), so the determinism analyzer holds for this
// package.

// Scheme identifies a loss-repair scheme. The zero value is SchemeNone.
// FEC schemes carry their group size k in the value (see SchemeFEC).
type Scheme uint8

const (
	// SchemeNone is plain forwarding: no repair.
	SchemeNone Scheme = 0
	// SchemeNACK is receiver-driven retransmission.
	SchemeNACK Scheme = 1
	// SchemeRED is send-twice duplication.
	SchemeRED Scheme = 2
)

// fecBit marks FEC schemes; the low nibble carries the group size.
const fecBit = 0x80

// MaxFECGroup bounds the FEC group size encodable in a scheme byte.
const MaxFECGroup = 15

// SchemeFEC returns the XOR-FEC scheme with group size k (clamped to
// [2, MaxFECGroup]).
func SchemeFEC(k int) Scheme {
	if k < 2 {
		k = 2
	}
	if k > MaxFECGroup {
		k = MaxFECGroup
	}
	return Scheme(fecBit | k)
}

// IsFEC reports whether the scheme is an XOR-FEC variant.
func (s Scheme) IsFEC() bool { return s&fecBit != 0 }

// FECGroup returns the FEC group size (0 for non-FEC schemes).
func (s Scheme) FECGroup() int {
	if !s.IsFEC() {
		return 0
	}
	return int(s &^ fecBit)
}

// Byte returns the wire form carried in the media frame header.
func (s Scheme) Byte() uint8 { return uint8(s) }

// SchemeFromByte decodes a frame-header scheme byte. Unknown or malformed
// values decode to SchemeNone — a forwarding node or an old peer must
// degrade to plain forwarding, never fail the call.
func SchemeFromByte(b uint8) Scheme {
	s := Scheme(b)
	switch {
	case s == SchemeNone || s == SchemeNACK || s == SchemeRED:
		return s
	case s.IsFEC() && s.FECGroup() >= 2:
		return s
	default:
		return SchemeNone
	}
}

// String renders the scheme ("none", "nack", "red", "fec-4").
func (s Scheme) String() string {
	switch {
	case s == SchemeNone:
		return "none"
	case s == SchemeNACK:
		return "nack"
	case s == SchemeRED:
		return "red"
	case s.IsFEC():
		return "fec-" + strconv.Itoa(s.FECGroup())
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// ParseScheme parses a scheme name as rendered by String.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "none", "":
		return SchemeNone, nil
	case "nack":
		return SchemeNACK, nil
	case "red":
		return SchemeRED, nil
	}
	if k, ok := strings.CutPrefix(name, "fec-"); ok {
		n, err := strconv.Atoi(k)
		if err != nil || n < 2 || n > MaxFECGroup {
			return SchemeNone, fmt.Errorf("rtp: bad fec group in scheme %q", name)
		}
		return SchemeFEC(n), nil
	}
	return SchemeNone, fmt.Errorf("rtp: unknown repair scheme %q", name)
}

// ErrRepair reports a malformed repair payload (FEC or NACK wire form).
var ErrRepair = errors.New("rtp: malformed repair payload")

// FECPacket is one XOR parity packet covering the K media packets
// [BaseSeq, BaseSeq+K). Payload is the XOR of the members' payloads
// (shorter payloads zero-padded); LenXor and TSXor are the XOR of the
// members' payload lengths and RTP timestamps, so a single missing
// member's length and timestamp are recoverable too.
type FECPacket struct {
	BaseSeq uint16
	K       uint8
	LenXor  uint16
	TSXor   uint32
	Payload []byte // aliases the decode buffer on Unmarshal
}

// fecHdrLen is the parity packet's fixed header size.
const fecHdrLen = 2 + 1 + 2 + 4

// Marshal appends the parity packet's wire form to dst.
func (p *FECPacket) Marshal(dst []byte) []byte {
	var h [fecHdrLen]byte
	binary.BigEndian.PutUint16(h[0:2], p.BaseSeq)
	h[2] = p.K
	binary.BigEndian.PutUint16(h[3:5], p.LenXor)
	binary.BigEndian.PutUint32(h[5:9], p.TSXor)
	dst = append(dst, h[:]...)
	return append(dst, p.Payload...)
}

// Unmarshal decodes a parity packet. Payload aliases buf.
func (p *FECPacket) Unmarshal(buf []byte) error {
	if len(buf) < fecHdrLen {
		return ErrTruncated
	}
	p.BaseSeq = binary.BigEndian.Uint16(buf[0:2])
	p.K = buf[2]
	if p.K < 2 || p.K > MaxFECGroup {
		return ErrRepair
	}
	p.LenXor = binary.BigEndian.Uint16(buf[3:5])
	p.TSXor = binary.BigEndian.Uint32(buf[5:9])
	p.Payload = buf[fecHdrLen:]
	return nil
}

// FECEncoder accumulates sender-side XOR parity over groups of K media
// packets. Add folds packets in send order and returns the completed
// parity packet every K-th call; the returned packet (and its payload)
// are reused by the next group, so marshal it before the next Add.
// Steady-state operation allocates nothing.
type FECEncoder struct {
	k   int
	n   int
	pkt FECPacket
}

// NewFECEncoder builds an encoder for group size k (clamped to
// [2, MaxFECGroup]).
func NewFECEncoder(k int) *FECEncoder {
	return &FECEncoder{k: SchemeFEC(k).FECGroup()}
}

// Add folds one media packet into the current group.
//
//via:noalloc
func (e *FECEncoder) Add(p *Packet) *FECPacket {
	if e.n == 0 {
		e.pkt.BaseSeq = p.Seq
		e.pkt.K = uint8(e.k)
		e.pkt.LenXor = 0
		e.pkt.TSXor = 0
		e.pkt.Payload = e.pkt.Payload[:0]
	}
	for len(e.pkt.Payload) < len(p.Payload) {
		e.pkt.Payload = append(e.pkt.Payload, 0)
	}
	for i, b := range p.Payload {
		e.pkt.Payload[i] ^= b
	}
	e.pkt.LenXor ^= uint16(len(p.Payload))
	e.pkt.TSXor ^= p.Timestamp
	e.n++
	if e.n == e.k {
		e.n = 0
		return &e.pkt
	}
	return nil
}

// fecGroupSlots bounds how many FEC groups the decoder tracks at once;
// reordering across more than this many groups abandons the oldest.
const fecGroupSlots = 4

// fecGroup is one in-flight group's running XOR — O(1) memory per group
// regardless of k: recovering a single loss needs only parity ⊕ (XOR of
// survivors), never the survivors individually.
type fecGroup struct {
	active     bool
	base       uint16
	mask       uint16 // member offsets folded in
	lenXor     uint16
	tsXor      uint32
	ptype      uint8
	ssrc       uint32
	acc        []byte // running XOR of member payloads (reused backing)
	accLen     int    // longest member payload folded so far
	haveParity bool
	parity     FECPacket
	done       bool // recovered or complete; ignore stragglers
}

// FECDecoder reassembles receiver-side FEC groups incrementally. Feed
// every media packet to AddMedia and every parity packet to AddParity;
// when a group with exactly one missing member gains its parity (in either
// order), the missing packet is returned. The returned packet's payload
// is owned by the decoder and valid until the next Add call.
type FECDecoder struct {
	k      int
	groups [fecGroupSlots]fecGroup
	out    []byte // recovery buffer, reused
}

// NewFECDecoder builds a decoder for group size k (clamped like the
// encoder).
func NewFECDecoder(k int) *FECDecoder {
	return &FECDecoder{k: SchemeFEC(k).FECGroup()}
}

// groupFor finds or claims the slot for the group with the given base,
// evicting the stalest group when all slots are busy.
func (d *FECDecoder) groupFor(base uint16) *fecGroup {
	evict := 0
	var evictDist uint16
	for i := range d.groups {
		g := &d.groups[i]
		if g.active && g.base == base {
			return g
		}
		if !g.active {
			evict = i
			evictDist = 0xffff
			continue
		}
		// Prefer evicting the group furthest behind the new one.
		if dist := base - g.base; dist > evictDist {
			evict, evictDist = i, dist
		}
	}
	g := &d.groups[evict]
	*g = fecGroup{active: true, base: base, acc: g.acc[:0]}
	return g
}

// AddMedia folds one received media packet into its group.
func (d *FECDecoder) AddMedia(p *Packet) (Packet, bool) {
	base := p.Seq / uint16(d.k) * uint16(d.k)
	g := d.groupFor(base)
	off := p.Seq - base
	if g.done || g.mask&(1<<off) != 0 {
		return Packet{}, false
	}
	g.mask |= 1 << off
	g.ptype = p.PayloadType
	g.ssrc = p.SSRC
	for len(g.acc) < len(p.Payload) {
		g.acc = append(g.acc, 0)
	}
	for i, b := range p.Payload {
		g.acc[i] ^= b
	}
	if len(p.Payload) > g.accLen {
		g.accLen = len(p.Payload)
	}
	g.lenXor ^= uint16(len(p.Payload))
	g.tsXor ^= p.Timestamp
	if bits.OnesCount16(g.mask) == d.k {
		g.done = true // nothing was lost; parity is moot
	}
	return d.tryRecover(g)
}

// AddParity folds one received parity packet into its group.
func (d *FECDecoder) AddParity(p *FECPacket) (Packet, bool) {
	if int(p.K) != d.k {
		return Packet{}, false // scheme mismatch; drop
	}
	g := d.groupFor(p.BaseSeq)
	if g.done || g.haveParity {
		return Packet{}, false
	}
	g.haveParity = true
	// Copy: the parity payload aliases the caller's receive buffer.
	g.parity.BaseSeq = p.BaseSeq
	g.parity.K = p.K
	g.parity.LenXor = p.LenXor
	g.parity.TSXor = p.TSXor
	g.parity.Payload = append(g.parity.Payload[:0], p.Payload...)
	return d.tryRecover(g)
}

// tryRecover reconstructs the one missing member once parity plus k−1
// members are in.
func (d *FECDecoder) tryRecover(g *fecGroup) (Packet, bool) {
	if g.done || !g.haveParity || bits.OnesCount16(g.mask) != d.k-1 {
		return Packet{}, false
	}
	g.done = true
	missLen := g.parity.LenXor ^ g.lenXor
	if int(missLen) > len(g.parity.Payload) {
		return Packet{}, false // corrupt parity; unrecoverable
	}
	missing := 0
	for g.mask&(1<<missing) != 0 {
		missing++
	}
	d.out = append(d.out[:0], g.parity.Payload[:missLen]...)
	n := int(missLen)
	if g.accLen < n {
		n = g.accLen
	}
	for i := 0; i < n; i++ {
		d.out[i] ^= g.acc[i]
	}
	return Packet{
		PayloadType: g.ptype,
		Seq:         g.base + uint16(missing),
		Timestamp:   g.parity.TSXor ^ g.tsXor,
		SSRC:        g.ssrc,
		Payload:     d.out,
	}, true
}

// MaxNACKSeqs bounds the sequence numbers one NACK request carries.
const MaxNACKSeqs = 64

// NACKRequest asks the sender to retransmit specific sequence numbers —
// the RTCP generic-NACK analogue, carried as its own frame kind.
type NACKRequest struct {
	SSRC uint32
	Seqs []uint16
}

// nackHdrLen is the request's fixed header size.
const nackHdrLen = 4 + 1

// Marshal appends the request's wire form to dst (at most MaxNACKSeqs
// sequence numbers are encoded).
func (n *NACKRequest) Marshal(dst []byte) []byte {
	count := len(n.Seqs)
	if count > MaxNACKSeqs {
		count = MaxNACKSeqs
	}
	var h [nackHdrLen]byte
	binary.BigEndian.PutUint32(h[0:4], n.SSRC)
	h[4] = byte(count)
	dst = append(dst, h[:]...)
	for _, s := range n.Seqs[:count] {
		dst = binary.BigEndian.AppendUint16(dst, s)
	}
	return dst
}

// Unmarshal decodes a request, reusing Seqs' capacity.
func (n *NACKRequest) Unmarshal(buf []byte) error {
	if len(buf) < nackHdrLen {
		return ErrTruncated
	}
	n.SSRC = binary.BigEndian.Uint32(buf[0:4])
	count := int(buf[4])
	if count > MaxNACKSeqs {
		return ErrRepair
	}
	if len(buf) < nackHdrLen+2*count {
		return ErrTruncated
	}
	n.Seqs = n.Seqs[:0]
	for i := 0; i < count; i++ {
		n.Seqs = append(n.Seqs, binary.BigEndian.Uint16(buf[nackHdrLen+2*i:]))
	}
	return nil
}

// NACKConfig bounds receiver-driven retransmission so repair never
// outlives playout.
type NACKConfig struct {
	// RetryCap is the maximum requests per missing packet (default 3).
	RetryCap int
	// DeadlineNanos abandons a missing packet this long after the gap was
	// first seen — the playout deadline (default 400ms).
	DeadlineNanos int64
	// IntervalNanos is the minimum spacing between requests for the same
	// packet — give a retransmit a round trip to land (default 40ms).
	IntervalNanos int64
	// MaxPending bounds the tracked-gap table; a burst beyond it expires
	// the oldest gaps as deadline misses (default 128).
	MaxPending int
}

// withDefaults fills zero fields.
func (c NACKConfig) withDefaults() NACKConfig {
	if c.RetryCap <= 0 {
		c.RetryCap = 3
	}
	if c.DeadlineNanos <= 0 {
		c.DeadlineNanos = 400e6
	}
	if c.IntervalNanos <= 0 {
		c.IntervalNanos = 40e6
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 128
	}
	return c
}

// nackEntry tracks one missing packet.
type nackEntry struct {
	seq     uint16
	first   int64 // when the gap was first seen
	lastReq int64 // when the last request went out
	tries   int
}

// NACKGenerator is the receiver-side gap bookkeeper: register gaps with
// Missing, clear them with Recovered when a retransmit (or late original)
// lands, and drain Due periodically to learn which sequence numbers to
// request. All times are caller-supplied nanoseconds — no clock inside.
type NACKGenerator struct {
	cfg     NACKConfig
	entries []nackEntry
	misses  int64
}

// NewNACKGenerator builds a generator (zero config fields take defaults).
func NewNACKGenerator(cfg NACKConfig) *NACKGenerator {
	c := cfg.withDefaults()
	return &NACKGenerator{cfg: c, entries: make([]nackEntry, 0, c.MaxPending)}
}

// Missing registers a gap first observed at nowNanos (idempotent). When
// the table is full the oldest gap is expired as a deadline miss — under
// that much loss the oldest gap was not going to make playout anyway.
func (g *NACKGenerator) Missing(seq uint16, nowNanos int64) {
	for i := range g.entries {
		if g.entries[i].seq == seq {
			return
		}
	}
	if len(g.entries) >= g.cfg.MaxPending {
		g.entries = g.entries[1:]
		g.misses++
	}
	// Backdate lastReq so the first Due after detection requests at once.
	g.entries = append(g.entries, nackEntry{
		seq:     seq,
		first:   nowNanos,
		lastReq: nowNanos - g.cfg.IntervalNanos,
	})
}

// Recovered clears a gap (the packet arrived, by retransmit or late).
func (g *NACKGenerator) Recovered(seq uint16) {
	for i := range g.entries {
		if g.entries[i].seq == seq {
			g.entries = append(g.entries[:i], g.entries[i+1:]...)
			return
		}
	}
}

// Due appends the sequence numbers that should be (re)requested now to
// dst and returns it, along with how many gaps expired this round
// (deadline passed or retry cap spent) — those are abandoned as
// unrepairable.
func (g *NACKGenerator) Due(nowNanos int64, dst []uint16) ([]uint16, int) {
	expired := 0
	kept := g.entries[:0]
	for _, e := range g.entries {
		switch {
		case nowNanos-e.first >= g.cfg.DeadlineNanos,
			e.tries >= g.cfg.RetryCap && nowNanos-e.lastReq >= g.cfg.IntervalNanos:
			expired++
			continue
		case e.tries < g.cfg.RetryCap && nowNanos-e.lastReq >= g.cfg.IntervalNanos:
			e.tries++
			e.lastReq = nowNanos
			dst = append(dst, e.seq)
		}
		kept = append(kept, e)
	}
	g.entries = kept
	g.misses += int64(expired)
	return dst, expired
}

// DeadlineMisses returns how many gaps were abandoned unrepaired.
func (g *NACKGenerator) DeadlineMisses() int64 { return g.misses }

// GapTracker detects fresh sequence gaps in arrival order: every sequence
// number skipped over by a forward jump is reported exactly once. Late
// (reordered) arrivals create no gaps. Jumps wider than maxGapBurst are
// treated as a stream discontinuity, not as that many losses.
type GapTracker struct {
	init bool
	next uint16 // next expected sequence number
}

// maxGapBurst bounds how many misses one forward jump may report.
const maxGapBurst = 256

// Observe folds one arrival in, invoking miss for every newly-detected
// missing sequence number.
//
//via:noalloc
func (g *GapTracker) Observe(seq uint16, miss func(uint16)) {
	if !g.init {
		g.init = true
		g.next = seq + 1
		return
	}
	delta := seq - g.next // mod-2^16 forward distance
	if delta >= 0x8000 {
		return // at or behind the expected position: late arrival
	}
	if delta <= maxGapBurst {
		for s := g.next; s != seq; s++ {
			miss(s)
		}
	}
	g.next = seq + 1
}

// RtxRing is the sender-side retransmit buffer: a fixed ring of reusable
// byte slots indexed by sequence number, holding the wire form of the
// most recent packets. Put copies; Get returns the stored bytes when the
// slot still holds that sequence number. Steady-state operation allocates
// nothing.
type RtxRing struct {
	slots [][]byte
	seqs  []uint16
	used  []bool
}

// NewRtxRing builds a ring with the given capacity (default 128).
func NewRtxRing(size int) *RtxRing {
	if size <= 0 {
		size = 128
	}
	return &RtxRing{
		slots: make([][]byte, size),
		seqs:  make([]uint16, size),
		used:  make([]bool, size),
	}
}

// Put stores a packet's wire bytes for possible retransmission.
func (r *RtxRing) Put(seq uint16, wire []byte) {
	i := int(seq) % len(r.slots)
	r.slots[i] = append(r.slots[i][:0], wire...)
	r.seqs[i] = seq
	r.used[i] = true
}

// Get returns the stored wire bytes for seq, if the ring still holds
// them. The returned slice is owned by the ring — send it, don't keep it.
//
//via:noalloc
func (r *RtxRing) Get(seq uint16) ([]byte, bool) {
	i := int(seq) % len(r.slots)
	if !r.used[i] || r.seqs[i] != seq {
		return nil, false
	}
	return r.slots[i], true
}
