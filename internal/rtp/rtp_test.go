package rtp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{
		PayloadType: 111,
		Marker:      true,
		Seq:         0xBEEF,
		Timestamp:   0xDEADBEEF,
		SSRC:        0x12345678,
		Payload:     []byte("hello voip"),
	}
	wire := p.Marshal(nil)
	if len(wire) != HeaderLen+len(p.Payload) {
		t.Fatalf("wire length %d", len(wire))
	}
	var q Packet
	if err := q.Unmarshal(wire); err != nil {
		t.Fatal(err)
	}
	if q.PayloadType != p.PayloadType || q.Marker != p.Marker || q.Seq != p.Seq ||
		q.Timestamp != p.Timestamp || q.SSRC != p.SSRC || string(q.Payload) != string(p.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", q, p)
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	f := func(pt uint8, marker bool, seq uint16, ts, ssrc uint32, payload []byte) bool {
		p := Packet{PayloadType: pt & 0x7f, Marker: marker, Seq: seq, Timestamp: ts, SSRC: ssrc, Payload: payload}
		var q Packet
		if err := q.Unmarshal(p.Marshal(nil)); err != nil {
			return false
		}
		return q.PayloadType == p.PayloadType && q.Marker == p.Marker &&
			q.Seq == p.Seq && q.Timestamp == p.Timestamp && q.SSRC == p.SSRC &&
			string(q.Payload) == string(p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPacketUnmarshalErrors(t *testing.T) {
	var p Packet
	if err := p.Unmarshal(make([]byte, 5)); err != ErrTruncated {
		t.Errorf("short buffer: %v", err)
	}
	bad := make([]byte, HeaderLen)
	bad[0] = 1 << 6 // version 1
	if err := p.Unmarshal(bad); err != ErrVersion {
		t.Errorf("bad version: %v", err)
	}
}

func TestPacketMarshalAppends(t *testing.T) {
	p := Packet{Seq: 1}
	prefix := []byte{9, 9}
	wire := p.Marshal(prefix)
	if wire[0] != 9 || wire[1] != 9 {
		t.Error("Marshal must append to dst")
	}
}

func TestReceiverReportRoundTrip(t *testing.T) {
	r := ReceiverReport{
		SSRC:          7,
		CumLost:       42,
		HighestSeq:    0x10002,
		JitterMicros:  1500,
		LastSendNanos: 123456789,
		DelayNanos:    555,
	}
	var q ReceiverReport
	if err := q.Unmarshal(r.Marshal(nil)); err != nil {
		t.Fatal(err)
	}
	if q != r {
		t.Errorf("round trip mismatch: %+v vs %+v", q, r)
	}
	if err := q.Unmarshal(make([]byte, 10)); err != ErrTruncated {
		t.Errorf("short report: %v", err)
	}
}

func TestJitterConstantSpacing(t *testing.T) {
	// Perfectly paced packets → jitter converges to ~0.
	var j JitterEstimator
	const frame = ClockRate / 50 // 20ms at 90kHz
	for i := 0; i < 200; i++ {
		j.Observe(uint32(i*frame), int64(i)*20_000_000)
	}
	if j.Millis() > 0.01 {
		t.Errorf("constant spacing jitter = %v ms", j.Millis())
	}
}

func TestJitterDetectsVariance(t *testing.T) {
	var j JitterEstimator
	const frame = ClockRate / 50
	arrival := int64(0)
	for i := 0; i < 500; i++ {
		arrival += 20_000_000
		if i%2 == 0 {
			arrival += 8_000_000 // alternate +8ms delay
		} else {
			arrival -= 8_000_000
		}
		j.Observe(uint32(i*frame), arrival)
	}
	// Alternating ±8ms inter-arrival deviation: RFC jitter converges near
	// the mean absolute deviation (~16ms spacing delta).
	if j.Millis() < 5 || j.Millis() > 25 {
		t.Errorf("jitter = %v ms, want ~10-20", j.Millis())
	}
}

func TestJitterTimestampWraparound(t *testing.T) {
	var j JitterEstimator
	ts := uint32(math.MaxUint32 - 2*ClockRate/50)
	arrival := int64(0)
	for i := 0; i < 10; i++ {
		j.Observe(ts, arrival)
		ts += ClockRate / 50 // wraps through 0
		arrival += 20_000_000
	}
	if j.Millis() > 0.01 {
		t.Errorf("wraparound produced phantom jitter: %v ms", j.Millis())
	}
}

func TestLossTrackerNoLoss(t *testing.T) {
	var l LossTracker
	for s := uint16(100); s < 200; s++ {
		l.ObserveArrival(s)
	}
	if l.Lost() != 0 || l.LossRate() != 0 {
		t.Errorf("lost = %d on gapless stream", l.Lost())
	}
	if l.Expected() != 100 || l.received != 100 {
		t.Errorf("expected/received = %d/%d", l.Expected(), l.received)
	}
}

func TestLossTrackerGaps(t *testing.T) {
	var l LossTracker
	for s := uint16(0); s < 100; s++ {
		if s%10 == 3 {
			continue // drop 10%
		}
		l.ObserveArrival(s)
	}
	if l.Lost() != 10 {
		t.Errorf("lost = %d, want 10", l.Lost())
	}
	if math.Abs(l.LossRate()-0.1) > 0.02 {
		t.Errorf("loss rate = %v", l.LossRate())
	}
}

func TestLossTrackerReordering(t *testing.T) {
	var l LossTracker
	for _, s := range []uint16{1, 2, 4, 3, 5, 7, 6, 8} {
		l.ObserveArrival(s)
	}
	if l.Lost() != 0 {
		t.Errorf("reordering counted as loss: %d", l.Lost())
	}
}

func TestLossTrackerWraparound(t *testing.T) {
	var l LossTracker
	start := uint16(65530)
	for i := 0; i < 20; i++ {
		l.ObserveArrival(start + uint16(i)) // wraps past 65535
	}
	if l.Lost() != 0 {
		t.Errorf("wraparound counted as loss: %d", l.Lost())
	}
	if l.Expected() != 20 {
		t.Errorf("expected = %d, want 20", l.Expected())
	}
	if l.HighestExt() != 1<<16|uint32(start+19)&0xffff {
		t.Errorf("highest ext = %#x", l.HighestExt())
	}
}

func TestLossTrackerEmpty(t *testing.T) {
	var l LossTracker
	if l.Expected() != 0 || l.Lost() != 0 || l.LossRate() != 0 {
		t.Error("empty tracker should report zeros")
	}
}

func TestFlowStats(t *testing.T) {
	var f FlowStats
	const frame = ClockRate / 50
	for i := 0; i < 100; i++ {
		p := Packet{Seq: uint16(i), Timestamp: uint32(i * frame)}
		f.ObservePacket(&p, int64(i)*20_000_000)
	}
	f.ObserveRTT(80_000_000)  // 80 ms
	f.ObserveRTT(120_000_000) // 120 ms
	f.ObserveRTT(-5)          // invalid, ignored
	m := f.Metrics()
	if m.RTTMs != 100 {
		t.Errorf("RTT = %v, want 100", m.RTTMs)
	}
	if f.rttCount != 2 {
		t.Errorf("RTT samples = %d", f.rttCount)
	}
	if m.LossRate != 0 {
		t.Errorf("loss = %v", m.LossRate)
	}
	if !m.Valid() {
		t.Errorf("invalid metrics %+v", m)
	}
}

func TestFlowStatsNoRTT(t *testing.T) {
	var f FlowStats
	if m := f.Metrics(); m.RTTMs != 0 {
		t.Error("no samples should give zero RTT")
	}
}
