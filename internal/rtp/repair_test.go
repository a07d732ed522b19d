package rtp

import (
	"testing"

	"repro/internal/stats"
)

func TestSchemeCodec(t *testing.T) {
	cases := []struct {
		s    Scheme
		name string
	}{
		{SchemeNone, "none"},
		{SchemeNACK, "nack"},
		{SchemeRED, "red"},
		{SchemeFEC(2), "fec-2"},
		{SchemeFEC(4), "fec-4"},
		{SchemeFEC(15), "fec-15"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.name {
			t.Errorf("String(%d) = %q, want %q", c.s, got, c.name)
		}
		parsed, err := ParseScheme(c.name)
		if err != nil || parsed != c.s {
			t.Errorf("ParseScheme(%q) = %v, %v", c.name, parsed, err)
		}
		if got := SchemeFromByte(c.s.Byte()); got != c.s {
			t.Errorf("byte round trip %v → %v", c.s, got)
		}
	}
	for _, bad := range []string{"fec-1", "fec-16", "fec-x", "parity", "nack2"} {
		if _, err := ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme(%q) accepted", bad)
		}
	}
	// Malformed bytes degrade to none, never error: old peers must keep
	// forwarding.
	for _, b := range []uint8{3, 0x7f, 0x80, 0x81} {
		if got := SchemeFromByte(b); got != SchemeNone {
			t.Errorf("SchemeFromByte(%#x) = %v, want none", b, got)
		}
	}
	if SchemeFEC(100) != SchemeFEC(15) || SchemeFEC(0) != SchemeFEC(2) {
		t.Error("SchemeFEC must clamp group size")
	}
}

// group builds k sequential packets with distinct payloads.
func group(t *testing.T, base uint16, k int, lens []int) []*Packet {
	t.Helper()
	out := make([]*Packet, k)
	for i := 0; i < k; i++ {
		n := 16 + i
		if lens != nil {
			n = lens[i]
		}
		pl := make([]byte, n)
		for j := range pl {
			pl[j] = byte(i*31 + j)
		}
		out[i] = &Packet{
			PayloadType: 111,
			Seq:         base + uint16(i),
			Timestamp:   uint32(base+uint16(i)) * 1800,
			SSRC:        0xCAFE,
			Payload:     pl,
		}
	}
	return out
}

func TestFECRecoverAnySingleLoss(t *testing.T) {
	cases := []struct {
		name string
		k    int
		base uint16
		lens []int
	}{
		{"k2", 2, 0, nil},
		{"k4", 4, 100, nil},
		{"k4-varied-lens", 4, 8, []int{8, 200, 1, 40}},
		{"k8", 8, 1000, nil},
		{"k4-wrap-adjacent", 4, 0xfffc, nil}, // group ends at seq 65535
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pkts := group(t, c.base, c.k, c.lens)
			enc := NewFECEncoder(c.k)
			var parity *FECPacket
			for _, p := range pkts {
				parity = enc.Add(p)
			}
			if parity == nil {
				t.Fatal("encoder did not complete the group")
			}
			wire := parity.Marshal(nil)
			for miss := 0; miss < c.k; miss++ {
				var fp FECPacket
				if err := fp.Unmarshal(wire); err != nil {
					t.Fatal(err)
				}
				// Parity last for even misses, first for odd ones.
				dec := NewFECDecoder(c.k)
				if miss%2 == 1 {
					if _, ok := dec.AddParity(&fp); ok {
						t.Fatalf("miss=%d: recovered from parity alone", miss)
					}
				}
				var rec Packet
				var ok bool
				for i, p := range pkts {
					if i != miss {
						rec, ok = dec.AddMedia(p)
					}
				}
				if miss%2 == 0 {
					rec, ok = dec.AddParity(&fp)
				}
				if !ok {
					t.Fatalf("miss=%d: not recovered", miss)
				}
				want := pkts[miss]
				if rec.Seq != want.Seq || rec.Timestamp != want.Timestamp ||
					rec.SSRC != want.SSRC || string(rec.Payload) != string(want.Payload) {
					t.Errorf("miss=%d recovered %v, want %v", miss, &rec, want)
				}
			}
		})
	}
}

// recovers feeds members then parity to a fresh decoder and reports
// whether anything was recovered.
func recovers(k int, parity *FECPacket, members ...*Packet) bool {
	dec := NewFECDecoder(k)
	recovered := false
	for _, m := range members {
		_, ok := dec.AddMedia(m)
		recovered = recovered || ok
	}
	_, ok := dec.AddParity(parity)
	return recovered || ok
}

func TestFECDoubleLossUnrecoverable(t *testing.T) {
	pkts := group(t, 40, 4, nil)
	enc := NewFECEncoder(4)
	var parity *FECPacket
	for _, p := range pkts {
		parity = enc.Add(p)
	}
	if recovers(4, parity, pkts[:2]...) {
		t.Error("double loss recovered")
	}
	// A duplicated member and an out-of-group member must not count
	// towards the group either.
	if recovers(4, parity, pkts[0], pkts[0], pkts[1]) {
		t.Error("duplicate member accepted")
	}
	foreign := *pkts[0]
	foreign.Seq = 999
	if recovers(4, parity, pkts[0], pkts[1], &foreign) {
		t.Error("out-of-group member accepted")
	}
}

func TestFECPacketUnmarshalErrors(t *testing.T) {
	var fp FECPacket
	if err := fp.Unmarshal(make([]byte, fecHdrLen-1)); err != ErrTruncated {
		t.Errorf("short: %v", err)
	}
	bad := (&FECPacket{BaseSeq: 0, K: 1, Payload: []byte{1}}).Marshal(nil)
	if err := fp.Unmarshal(bad); err != ErrRepair {
		t.Errorf("k=1: %v", err)
	}
	bad = (&FECPacket{BaseSeq: 0, K: 16, Payload: []byte{1}}).Marshal(nil)
	if err := fp.Unmarshal(bad); err != ErrRepair {
		t.Errorf("k=16: %v", err)
	}
	// A recovered length exceeding the parity payload is detected at
	// recovery time.
	corrupt := FECPacket{K: 2, LenXor: 100, Payload: []byte{1, 2}}
	if recovers(2, &corrupt, &Packet{Seq: 0, Payload: []byte{9}}) {
		t.Error("oversized recovered length recovered")
	}
}

func TestFECDecoderIncremental(t *testing.T) {
	const k = 4
	pkts := group(t, 200, k, nil)
	enc := NewFECEncoder(k)
	var parity *FECPacket
	for _, p := range pkts {
		parity = enc.Add(p)
	}

	// Parity-last: drop pkts[2], feed the rest, then parity.
	dec := NewFECDecoder(k)
	for i, p := range pkts {
		if i == 2 {
			continue
		}
		if _, ok := dec.AddMedia(p); ok {
			t.Fatal("recovered before parity arrived")
		}
	}
	rec, ok := dec.AddParity(parity)
	if !ok || rec.Seq != pkts[2].Seq || string(rec.Payload) != string(pkts[2].Payload) {
		t.Fatalf("parity-last recovery: ok=%v rec=%v", ok, &rec)
	}

	// Parity-first: parity arrives before the last survivor.
	dec = NewFECDecoder(k)
	if _, ok := dec.AddMedia(pkts[0]); ok {
		t.Fatal("premature recovery")
	}
	if _, ok := dec.AddParity(parity); ok {
		t.Fatal("recovered with two members missing")
	}
	if _, ok := dec.AddMedia(pkts[1]); ok {
		t.Fatal("still two missing")
	}
	rec, ok = dec.AddMedia(pkts[3])
	if !ok || rec.Seq != pkts[2].Seq || string(rec.Payload) != string(pkts[2].Payload) {
		t.Fatalf("parity-first recovery: ok=%v rec=%v", ok, &rec)
	}

	// Complete group: parity must not "recover" anything.
	dec = NewFECDecoder(k)
	for _, p := range pkts {
		dec.AddMedia(p)
	}
	if _, ok := dec.AddParity(parity); ok {
		t.Fatal("recovery from a complete group")
	}
}

func TestNACKRequestRoundTrip(t *testing.T) {
	req := NACKRequest{SSRC: 0xABCD, Seqs: []uint16{1, 5, 65535}}
	var got NACKRequest
	if err := got.Unmarshal(req.Marshal(nil)); err != nil {
		t.Fatal(err)
	}
	if got.SSRC != req.SSRC || len(got.Seqs) != 3 || got.Seqs[2] != 65535 {
		t.Errorf("round trip: %+v", got)
	}
	if err := got.Unmarshal([]byte{1, 2}); err != ErrTruncated {
		t.Errorf("short: %v", err)
	}
	// Claimed count beyond the buffer.
	bad := req.Marshal(nil)
	bad[4] = 60
	if err := got.Unmarshal(bad); err != ErrTruncated {
		t.Errorf("overclaimed count: %v", err)
	}
	// Marshal caps at MaxNACKSeqs.
	big := NACKRequest{Seqs: make([]uint16, MaxNACKSeqs+10)}
	if err := got.Unmarshal(big.Marshal(nil)); err != nil || len(got.Seqs) != MaxNACKSeqs {
		t.Errorf("cap: %d seqs, err %v", len(got.Seqs), err)
	}
}

func TestNACKGeneratorRetryCap(t *testing.T) {
	const ms = int64(1e6)
	gen := NewNACKGenerator(NACKConfig{RetryCap: 2, DeadlineNanos: 1000 * ms, IntervalNanos: 10 * ms})
	gen.Missing(7, 0)
	var due []uint16
	requests := 0
	for now := int64(0); now < 500*ms; now += 5 * ms {
		due, _ = gen.Due(now, due[:0])
		requests += len(due)
	}
	if requests != 2 {
		t.Errorf("requests = %d, want retry cap 2", requests)
	}
	if len(gen.entries) != 0 {
		t.Errorf("entry must expire after the cap: pending %d", len(gen.entries))
	}
	if gen.DeadlineMisses() != 1 {
		t.Errorf("misses = %d, want 1", gen.DeadlineMisses())
	}
}

func TestNACKGeneratorDeadline(t *testing.T) {
	const ms = int64(1e6)
	gen := NewNACKGenerator(NACKConfig{RetryCap: 100, DeadlineNanos: 50 * ms, IntervalNanos: 20 * ms})
	gen.Missing(1, 0)
	due, expired := gen.Due(0, nil)
	if len(due) != 1 || expired != 0 {
		t.Fatalf("first Due: %v expired %d", due, expired)
	}
	due, expired = gen.Due(30*ms, due[:0])
	if len(due) != 1 || expired != 0 {
		t.Fatalf("second Due: %v expired %d", due, expired)
	}
	due, expired = gen.Due(60*ms, due[:0])
	if len(due) != 0 || expired != 1 {
		t.Fatalf("past deadline: %v expired %d", due, expired)
	}
	if gen.DeadlineMisses() != 1 || len(gen.entries) != 0 {
		t.Errorf("misses %d pending %d", gen.DeadlineMisses(), len(gen.entries))
	}
}

func TestNACKGeneratorRecovered(t *testing.T) {
	gen := NewNACKGenerator(NACKConfig{})
	gen.Missing(3, 0)
	gen.Missing(4, 0)
	gen.Missing(3, 5) // idempotent
	if len(gen.entries) != 2 {
		t.Fatalf("pending = %d", len(gen.entries))
	}
	gen.Recovered(3)
	if len(gen.entries) != 1 {
		t.Fatalf("pending after recovery = %d", len(gen.entries))
	}
	due, _ := gen.Due(0, nil)
	if len(due) != 1 || due[0] != 4 {
		t.Errorf("due = %v, want [4]", due)
	}
	if gen.DeadlineMisses() != 0 {
		t.Errorf("recovery must not count as a miss")
	}
}

func TestNACKGeneratorTableBound(t *testing.T) {
	gen := NewNACKGenerator(NACKConfig{MaxPending: 4})
	for s := uint16(0); s < 10; s++ {
		gen.Missing(s, 0)
	}
	if len(gen.entries) != 4 {
		t.Errorf("pending = %d, want bound 4", len(gen.entries))
	}
	if gen.DeadlineMisses() != 6 {
		t.Errorf("evictions must count as misses: %d", gen.DeadlineMisses())
	}
}

func TestGapTracker(t *testing.T) {
	var g GapTracker
	var missed []uint16
	miss := func(s uint16) { missed = append(missed, s) }
	for _, s := range []uint16{10, 11, 14, 12, 15} {
		g.Observe(s, miss)
	}
	// 14 after 11 reports 12,13; late 12 reports nothing; 15 is in order.
	if len(missed) != 2 || missed[0] != 12 || missed[1] != 13 {
		t.Errorf("missed = %v, want [12 13]", missed)
	}
	// A huge jump is a discontinuity, not thousands of losses.
	missed = missed[:0]
	g.Observe(10000, miss)
	if len(missed) != 0 {
		t.Errorf("stream jump reported %d losses", len(missed))
	}
	g.Observe(10001, miss)
	if len(missed) != 0 {
		t.Errorf("post-jump resync broken: %v", missed)
	}
}

func TestRtxRing(t *testing.T) {
	r := NewRtxRing(8)
	for seq := uint16(0); seq < 20; seq++ {
		r.Put(seq, []byte{byte(seq), 0xAA})
	}
	if _, ok := r.Get(3); ok {
		t.Error("seq 3 must have been overwritten (3+8=11, 3+16=19)")
	}
	wire, ok := r.Get(19)
	if !ok || wire[0] != 19 {
		t.Errorf("seq 19: ok=%v wire=%v", ok, wire)
	}
	if _, ok := r.Get(21); ok {
		t.Error("never-stored seq returned")
	}
}

func TestLossTrackerReorderedVsLost(t *testing.T) {
	var l LossTracker
	arrivals := []struct {
		seq  uint16
		want Arrival
	}{
		{0, ArrivalNew},
		{1, ArrivalNew},
		{3, ArrivalNew},       // gap: 2 missing
		{2, ArrivalReordered}, // late, fills the gap
		{2, ArrivalDuplicate}, // second copy
		{4, ArrivalNew},
		{4, ArrivalDuplicate},
	}
	for _, a := range arrivals {
		if got := l.ObserveArrival(a.seq); got != a.want {
			t.Errorf("seq %d: arrival %v, want %v", a.seq, got, a.want)
		}
	}
	if l.Lost() != 0 {
		t.Errorf("lost = %d: reordering double-penalized", l.Lost())
	}
	if l.reordered != 1 || l.dups != 2 {
		t.Errorf("reordered/dups = %d/%d, want 1/2", l.reordered, l.dups)
	}
	if l.received != 5 {
		t.Errorf("received = %d, want 5 distinct", l.received)
	}
}

func TestLossTrackerDuplicatesDontMaskLoss(t *testing.T) {
	// Historically every duplicate bumped the receive count, letting RED's
	// duplicates cancel out real gaps. Send 0..9 with 5 missing, then
	// duplicate 3 five times: loss must still be 1.
	var l LossTracker
	for s := uint16(0); s < 10; s++ {
		if s == 5 {
			continue
		}
		l.ObserveArrival(s)
	}
	for i := 0; i < 5; i++ {
		l.ObserveArrival(3)
	}
	if l.Lost() != 1 {
		t.Errorf("lost = %d, want 1 (duplicates masked the gap)", l.Lost())
	}
}

func TestFlowStatsArrivalClassification(t *testing.T) {
	var f FlowStats
	p := Packet{Seq: 0, Timestamp: 0}
	if a := f.ObservePacket(&p, 0); a != ArrivalNew {
		t.Errorf("first packet: %v", a)
	}
	if a := f.ObservePacket(&p, 40_000_000); a != ArrivalDuplicate {
		t.Errorf("dup: %v", a)
	}
	// The duplicate (40ms late) must not have polluted jitter.
	if f.Jitter.Millis() != 0 {
		t.Errorf("duplicate fed jitter: %v ms", f.Jitter.Millis())
	}
	p2 := Packet{Seq: 2, Timestamp: 2 * 1800}
	f.ObservePacket(&p2, 40_000_000)
	if f.Loss.Lost() != 1 {
		t.Fatalf("lost = %d, want 1", f.Loss.Lost())
	}
	if a := f.ObserveRecovered(1); a != ArrivalReordered {
		t.Errorf("recovery: %v", a)
	}
	if f.Loss.Lost() != 0 {
		t.Errorf("recovery must clear the loss: %d", f.Loss.Lost())
	}
}

func TestSimulateRepairSchemes(t *testing.T) {
	const ms = int64(1e6)
	base := SimParams{
		Packets:       20000,
		IntervalNanos: 20 * ms,
		PlayoutNanos:  150 * ms,
	}

	run := func(s Scheme, rtt int64, loss, burst float64) RepairStats {
		p := base
		p.Scheme = s
		p.RTTNanos = rtt
		p.LossRate = loss
		p.MeanBurstLen = burst
		return SimulateRepair(p, stats.NewRNG(7).Split(s.String()))
	}

	// Low RTT, light independent loss: NACK repairs nearly everything.
	none := run(SchemeNone, 40*ms, 0.02, 1)
	nack := run(SchemeNACK, 40*ms, 0.02, 1)
	if none.Residual == 0 {
		t.Fatal("baseline lost nothing; regime too gentle")
	}
	if nack.ResidualLossRate() > 0.2*none.ResidualLossRate() {
		t.Errorf("nack residual %v vs none %v on a clean path",
			nack.ResidualLossRate(), none.ResidualLossRate())
	}
	if nack.NacksSent == 0 || nack.NacksHonored == 0 {
		t.Error("nack path never exercised")
	}
	if nack.OverheadRatio > 0.15 {
		t.Errorf("nack overhead %v implausibly high", nack.OverheadRatio)
	}

	// High RTT kills NACK (repair outlives playout) but not FEC.
	nackFar := run(SchemeNACK, 400*ms, 0.05, 3)
	fecFar := run(SchemeFEC(4), 400*ms, 0.05, 3)
	noneFar := run(SchemeNone, 400*ms, 0.05, 3)
	if nackFar.Recovered != 0 {
		t.Errorf("nack recovered %d despite RTT > playout", nackFar.Recovered)
	}
	if nackFar.DeadlineMisses == 0 {
		t.Error("deadline misses must be counted when RTT > playout")
	}
	if fecFar.ResidualLossRate() >= 0.9*noneFar.ResidualLossRate() {
		t.Errorf("fec residual %v vs none %v under burst loss",
			fecFar.ResidualLossRate(), noneFar.ResidualLossRate())
	}
	if fecFar.FECRecovered == 0 {
		t.Error("fec never recovered")
	}

	// RED overhead is 1:1; FEC-4 is a quarter.
	red := run(SchemeRED, 400*ms, 0.05, 3)
	if red.OverheadRatio < 0.9 {
		t.Errorf("red overhead %v, want ~1", red.OverheadRatio)
	}
	if fecFar.OverheadRatio > 0.3 {
		t.Errorf("fec-4 overhead %v, want ~0.25", fecFar.OverheadRatio)
	}
	if red.REDRecovered == 0 {
		t.Error("red never recovered")
	}
}

func TestSimulateRepairDeterministic(t *testing.T) {
	p := SimParams{Scheme: SchemeNACK, Packets: 5000, RTTNanos: 60e6, LossRate: 0.05, MeanBurstLen: 2}
	a := SimulateRepair(p, stats.NewRNG(11).Split("x"))
	b := SimulateRepair(p, stats.NewRNG(11).Split("x"))
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}
