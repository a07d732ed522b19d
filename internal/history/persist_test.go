package history

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/netsim"
	"repro/internal/quality"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	s := NewStore()
	s.Add(1, 2, netsim.DirectOption(), 0, q(100, 0.01, 5))
	s.Add(1, 2, netsim.DirectOption(), 0, q(200, 0.02, 7))
	s.Add(5, 9, netsim.TransitOption(1, 2), 3, q(400, 0.05, 30))

	var buf bytes.Buffer
	if err := s.Capture().Encode(&buf); err != nil {
		t.Fatal(err)
	}

	restored := NewStore()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}

	a, ok := restored.Get(1, 2, netsim.DirectOption(), 0)
	if !ok || a.N() != 2 {
		t.Fatalf("restored agg: %+v ok=%v", a, ok)
	}
	if a.Metrics[quality.RTT].Mean != 150 {
		t.Errorf("restored mean = %v", a.Metrics[quality.RTT].Mean)
	}
	if a.Metrics[quality.RTT].SEM() <= 0 {
		t.Error("restored variance lost")
	}
	b, ok := restored.Get(9, 5, netsim.TransitOption(2, 1), 3)
	if !ok || b.N() != 1 || b.PNR.AnyuB != 1 {
		t.Errorf("restored transit agg: %+v ok=%v", b, ok)
	}
	if ws := restored.Windows(); len(ws) != 2 {
		t.Errorf("restored windows: %v", ws)
	}
}

func TestSaveEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := NewStore().Capture().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if len(restored.Windows()) != 0 {
		t.Error("empty snapshot produced windows")
	}
}

func TestLoadMergesIntoExisting(t *testing.T) {
	s := NewStore()
	s.Add(1, 2, netsim.DirectOption(), 0, q(100, 0, 0))
	var buf bytes.Buffer
	s.Capture().Encode(&buf)

	other := NewStore()
	other.Add(1, 2, netsim.DirectOption(), 0, q(300, 0, 0))
	if err := other.Load(&buf); err != nil {
		t.Fatal(err)
	}
	a, _ := other.Get(1, 2, netsim.DirectOption(), 0)
	if a.N() != 2 || a.Metrics[quality.RTT].Mean != 200 {
		t.Errorf("merge result: N=%d mean=%v", a.N(), a.Metrics[quality.RTT].Mean)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	s := NewStore()
	if err := s.Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Error("garbage accepted")
	}
	if err := s.Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	mk := func() *bytes.Buffer {
		s := NewStore()
		for i := 0; i < 20; i++ {
			s.Add(netsim.ASID(i%5), netsim.ASID(10+i%3), netsim.BounceOption(netsim.RelayID(i%4)), i%2, q(float64(50+i), 0.001, 2))
		}
		var buf bytes.Buffer
		if err := s.Capture().Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := mk(), mk()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("snapshot bytes differ across identical stores")
	}
}

// TestCaptureEncodesInEachOptOrder pins the stream's layout: a header,
// then the entries window by window in EachOpt's order, so the bytes do
// not depend on map order and stay those of every snapshot written.
func TestCaptureEncodesInEachOptOrder(t *testing.T) {
	s := NewStore()
	for i := 0; i < 60; i++ {
		opt := netsim.BounceOption(netsim.RelayID(i % 4))
		if i%3 == 0 {
			opt = netsim.TransitOption(netsim.RelayID(i%5), netsim.RelayID(1+i%2))
		}
		s.Add(netsim.ASID(i%7), netsim.ASID(3+i%5), opt, 2-i%3, q(float64(50+i), 0.001*float64(i%4), 2))
	}
	var want bytes.Buffer
	enc := gob.NewEncoder(&want)
	var entries []snapshotEntry
	for _, win := range s.Windows() {
		s.EachOpt(win, func(pk PairKey, opt netsim.Option, a *Agg) {
			entries = append(entries, snapshotEntry{Window: win, A: pk.A, B: pk.B, Opt: opt, Metrics: a.Metrics, PNR: a.PNR})
		})
	}
	if err := enc.Encode(snapshotHeader{Version: snapshotVersion, Entries: len(entries)}); err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if err := enc.Encode(&entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	if err := s.Capture().Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("Capture().Encode differs from the EachOpt-ordered stream")
	}
}

// TestCaptureIsIsolated: what a Capture encodes is the store at the
// moment of the capture, whatever is added afterwards.
func TestCaptureIsIsolated(t *testing.T) {
	s := NewStore()
	s.Add(1, 2, netsim.DirectOption(), 0, q(100, 0.01, 5))
	var before bytes.Buffer
	if err := s.Capture().Encode(&before); err != nil {
		t.Fatal(err)
	}
	c := s.Capture()
	s.Add(1, 2, netsim.DirectOption(), 0, q(300, 0.02, 9))
	s.Add(4, 5, netsim.BounceOption(1), 1, q(80, 0, 1))
	var got bytes.Buffer
	if err := c.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), before.Bytes()) {
		t.Fatal("a capture saw adds made after it")
	}
}
