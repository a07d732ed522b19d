package rtp

import (
	"math"

	"repro/internal/quality"
)

// ClockRate is the media clock used for RTP timestamps (90 kHz, the
// conventional rate for timestamp arithmetic).
const ClockRate = 90000

// JitterEstimator implements the RFC 3550 §6.4.1 interarrival jitter
// estimator: J(i) = J(i−1) + (|D(i−1,i)| − J(i−1))/16, where D compares the
// spacing of arrival times against the spacing of RTP timestamps.
type JitterEstimator struct {
	init        bool
	lastTS      uint32  // RTP timestamp of previous packet (media clock)
	lastArrival int64   // arrival time of previous packet, nanoseconds
	jitter      float64 // in media clock units
}

// Observe folds one packet arrival into the estimate.
//
//via:noalloc
func (j *JitterEstimator) Observe(rtpTS uint32, arrivalNanos int64) {
	if !j.init {
		j.init = true
		j.lastTS = rtpTS
		j.lastArrival = arrivalNanos
		return
	}
	// Arrival delta in media clock units.
	arrDelta := float64(arrivalNanos-j.lastArrival) * ClockRate / 1e9
	tsDelta := float64(int32(rtpTS - j.lastTS)) // handles wraparound
	d := math.Abs(arrDelta - tsDelta)
	j.jitter += (d - j.jitter) / 16
	j.lastTS = rtpTS
	j.lastArrival = arrivalNanos
}

// Millis returns the current jitter estimate in milliseconds.
func (j *JitterEstimator) Millis() float64 {
	return j.jitter * 1000 / ClockRate
}

// Micros returns the current jitter estimate in microseconds.
func (j *JitterEstimator) Micros() uint32 {
	return uint32(j.jitter * 1e6 / ClockRate)
}

// Arrival classifies one packet arrival relative to the sequence stream.
type Arrival uint8

const (
	// ArrivalNew advances the stream: the next in-order packet, or a
	// forward jump past a gap.
	ArrivalNew Arrival = iota
	// ArrivalReordered is a packet that arrived late but had not been seen
	// before — delivered, not lost. Repair logic must treat it as filling
	// a gap, never as a fresh loss.
	ArrivalReordered
	// ArrivalDuplicate is a packet already delivered (RED's second copy, a
	// redundant retransmit, or network duplication). It is not counted as
	// received again, so duplicates can no longer mask real gaps.
	ArrivalDuplicate
)

// seenWindow is the dedup window in packets: late arrivals further than
// this behind the stream head cannot be distinguished from duplicates and
// are conservatively classified as reordered.
const seenWindow = 1024

const seenWords = seenWindow / 64

// LossTracker counts lost packets from RTP sequence numbers, tolerating
// reordering within a small window and 16-bit wraparound (RFC 3550
// Appendix A.1 style extended sequence numbers). A sliding bitmap over
// the last seenWindow sequence numbers distinguishes a late-but-delivered
// packet (reordering) from a second copy of one already delivered
// (duplicate), so reordering is not booked as loss and duplicates do not
// inflate the receive count.
type LossTracker struct {
	init      bool
	maxExt    uint32 // extended highest sequence number seen
	received  uint64
	baseExt   uint32
	cycles    uint32
	reordered uint64
	dups      uint64
	seen      [seenWords]uint64 // bitmap over ext % seenWindow
}

// ObserveArrival folds one received sequence number into the tracker and
// classifies the arrival.
//
//via:noalloc
func (l *LossTracker) ObserveArrival(seq uint16) Arrival {
	ext := l.extend(seq)
	if !l.init {
		l.init = true
		l.baseExt = ext
		l.maxExt = ext
		l.markSeen(ext)
		l.received++
		return ArrivalNew
	}
	if ext > l.maxExt {
		// Advance the window, clearing the bits the head slides over.
		if ext-l.maxExt >= seenWindow {
			l.seen = [seenWords]uint64{}
		} else {
			for s := l.maxExt + 1; s != ext; s++ {
				l.clearSeen(s)
			}
		}
		l.maxExt = ext
		l.markSeen(ext)
		l.received++
		return ArrivalNew
	}
	if l.maxExt-ext >= seenWindow {
		// Too far back to dedup; assume delivered-late rather than
		// double-counting it as a fresh in-order packet.
		l.reordered++
		l.received++
		return ArrivalReordered
	}
	if l.isSeen(ext) {
		l.dups++
		return ArrivalDuplicate
	}
	l.markSeen(ext)
	l.received++
	l.reordered++
	return ArrivalReordered
}

func (l *LossTracker) markSeen(ext uint32) {
	i := ext % seenWindow
	l.seen[i/64] |= 1 << (i % 64)
}

func (l *LossTracker) clearSeen(ext uint32) {
	i := ext % seenWindow
	l.seen[i/64] &^= 1 << (i % 64)
}

func (l *LossTracker) isSeen(ext uint32) bool {
	i := ext % seenWindow
	return l.seen[i/64]&(1<<(i%64)) != 0
}

// extend maps a 16-bit sequence number to the extended space.
func (l *LossTracker) extend(seq uint16) uint32 {
	if !l.init {
		return uint32(seq)
	}
	maxSeq := uint16(l.maxExt & 0xffff)
	// A jump "backwards" past half the space means the counter wrapped.
	if seq < maxSeq && maxSeq-seq > 0x8000 {
		l.cycles++
	}
	// A small backwards step (reordering) must not borrow a cycle.
	cycles := l.cycles
	if seq > maxSeq && seq-maxSeq > 0x8000 && cycles > 0 {
		cycles-- // late packet from before the wrap
	}
	return cycles<<16 | uint32(seq)
}

// Expected returns how many packets should have arrived so far.
func (l *LossTracker) Expected() uint64 {
	if !l.init {
		return 0
	}
	return uint64(l.maxExt-l.baseExt) + 1
}

// Lost returns the cumulative loss count (clamped at zero when duplicates
// outnumber gaps).
func (l *LossTracker) Lost() uint64 {
	exp := l.Expected()
	if l.received >= exp {
		return 0
	}
	return exp - l.received
}

// LossRate returns the loss fraction in [0, 1].
func (l *LossTracker) LossRate() float64 {
	exp := l.Expected()
	if exp == 0 {
		return 0
	}
	return float64(l.Lost()) / float64(exp)
}

// HighestExt returns the extended highest sequence number received.
func (l *LossTracker) HighestExt() uint32 { return l.maxExt }

// FlowStats aggregates one media flow's receive-side measurements and the
// sender-side RTT samples, producing the call-average quality.Metrics the
// controller consumes.
type FlowStats struct {
	Jitter JitterEstimator
	Loss   LossTracker

	rttSum   float64
	rttCount int64
}

// ObservePacket records a media packet arrival and classifies it.
// Duplicates are excluded from the jitter estimate — a RED copy or
// redundant retransmit trails its original by an arbitrary gap that says
// nothing about path delay variation.
//
//via:noalloc
func (f *FlowStats) ObservePacket(p *Packet, arrivalNanos int64) Arrival {
	a := f.Loss.ObserveArrival(p.Seq)
	if a != ArrivalDuplicate {
		f.Jitter.Observe(p.Timestamp, arrivalNanos)
	}
	return a
}

// ObserveRecovered credits a repair-reconstructed packet (FEC recovery)
// to the loss ledger without feeding the jitter estimator — its "arrival
// time" is an artifact of when the parity landed, not of path delay.
func (f *FlowStats) ObserveRecovered(seq uint16) Arrival {
	return f.Loss.ObserveArrival(seq)
}

// ObserveRTT records one round-trip sample in nanoseconds.
func (f *FlowStats) ObserveRTT(nanos int64) {
	if nanos < 0 {
		return
	}
	f.rttSum += float64(nanos) / 1e6
	f.rttCount++
}

// Metrics returns the call-average metric triple.
func (f *FlowStats) Metrics() quality.Metrics {
	m := quality.Metrics{
		LossRate: f.Loss.LossRate(),
		JitterMs: f.Jitter.Millis(),
	}
	if f.rttCount > 0 {
		m.RTTMs = f.rttSum / float64(f.rttCount)
	}
	return m
}
