package rtp

import "testing"

// FuzzFECDecode throws arbitrary bytes at the parity decoder and, when
// they parse, drives a full incremental decode — the invariant under test
// is "no panic, no out-of-bounds" on hostile input.
func FuzzFECDecode(f *testing.F) {
	pkts := make([]*Packet, 4)
	enc := NewFECEncoder(4)
	var parity *FECPacket
	for i := range pkts {
		pkts[i] = &Packet{Seq: uint16(i), Timestamp: uint32(i), Payload: []byte{byte(i), 1, 2}}
		parity = enc.Add(pkts[i])
	}
	f.Add(parity.Marshal(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 4, 0, 3, 0, 0, 0, 1, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fp FECPacket
		if err := fp.Unmarshal(data); err != nil {
			return
		}
		// Re-marshal must round-trip the accepted input.
		var back FECPacket
		if err := back.Unmarshal(fp.Marshal(nil)); err != nil {
			t.Fatalf("re-unmarshal of accepted parity failed: %v", err)
		}
		// Parity first, then k−1 synthetic members.
		dec := NewFECDecoder(int(fp.K))
		dec.AddParity(&fp)
		for i := 0; i < int(fp.K)-1; i++ {
			if rec, ok := dec.AddMedia(&Packet{Seq: fp.BaseSeq + uint16(i), Payload: []byte{byte(i)}}); ok && len(rec.Payload) > len(fp.Payload) {
				t.Fatalf("recovered payload of %d bytes from %d parity bytes", len(rec.Payload), len(fp.Payload))
			}
		}
	})
}

// FuzzNACKParse exercises the NACK request parser and, when the input
// parses, feeds the sequences through the generator state machine.
func FuzzNACKParse(f *testing.F) {
	f.Add((&NACKRequest{SSRC: 1, Seqs: []uint16{1, 2, 3}}).Marshal(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req NACKRequest
		if err := req.Unmarshal(data); err != nil {
			return
		}
		if len(req.Seqs) > MaxNACKSeqs {
			t.Fatalf("parser admitted %d seqs", len(req.Seqs))
		}
		var back NACKRequest
		if err := back.Unmarshal(req.Marshal(nil)); err != nil {
			t.Fatalf("re-unmarshal of accepted request failed: %v", err)
		}
		if back.SSRC != req.SSRC || len(back.Seqs) != len(req.Seqs) {
			t.Fatalf("round trip mismatch: %+v vs %+v", back, req)
		}
		gen := NewNACKGenerator(NACKConfig{MaxPending: 32})
		for i, s := range req.Seqs {
			gen.Missing(s, int64(i))
		}
		due, _ := gen.Due(int64(len(req.Seqs)), nil)
		for _, s := range due {
			gen.Recovered(s)
		}
	})
}
