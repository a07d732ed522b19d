package controller

import (
	"bytes"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/quality"
)

// TestDurableRepairReplayBitIdentical: the WAL with repair arms is the
// same deterministic machine as without — a crashed-and-recovered durable
// controller making (path, repair) decisions must track an uninterrupted
// in-memory reference decision-for-decision, and end at byte-identical
// strategy state.
func TestDurableRepairReplayBitIdentical(t *testing.T) {
	const total = 400
	restarts := map[int]bool{150: true, 310: true}
	schemes := []string{"none", "nack", "red", "fec-4"}
	clk := newFakeClock()
	dir := t.TempDir()

	newStrategy := func() *core.Via {
		cfg := core.DefaultViaConfig(quality.Loss)
		cfg.RepairSchemes = schemes
		return core.NewVia(cfg, nil)
	}
	newDurable := func() (*Server, *httptest.Server, *Client) {
		s, err := Open(Config{
			Strategy:        newStrategy(),
			TimeScale:       3600,
			WALDir:          dir,
			WALSyncInterval: -1,
			SnapshotEvery:   64, // exercise snapshot + tail replay together
			Clock:           clk.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		return s, ts, NewClient(ts.URL)
	}

	ref := New(Config{Strategy: newStrategy(), TimeScale: 3600, Clock: clk.Now})
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	refC := NewClient(refTS.URL)

	s, ts, c := newDurable()
	cands := testCands()
	for i := 0; i < total; i++ {
		if restarts[i] {
			ts.Close()
			if err := s.Close(); err != nil {
				t.Fatalf("close before restart at call %d: %v", i, err)
			}
			s, ts, c = newDurable()
		}
		clk.Advance(97 * time.Millisecond)
		src, dst := int32(3+i%4), int32(9+i%5)
		// Interleave repair-carrying and legacy calls: both record shapes
		// must coexist in one log and replay identically.
		offer := schemes
		if i%5 == 4 {
			offer = nil
		}
		gotOpt, gotScheme, err := c.ChooseWithRepair(src, dst, cands, offer)
		if err != nil {
			t.Fatalf("call %d: durable choose: %v", i, err)
		}
		wantOpt, wantScheme, err := refC.ChooseWithRepair(src, dst, cands, offer)
		if err != nil {
			t.Fatalf("call %d: reference choose: %v", i, err)
		}
		if gotOpt != wantOpt || gotScheme != wantScheme {
			t.Fatalf("call %d: recovered chose (%v, %q), reference (%v, %q)",
				i, gotOpt, gotScheme, wantOpt, wantScheme)
		}
		m := synthMetrics(i, gotOpt)
		if err := c.ReportRepair(src, dst, gotOpt, gotScheme, 120, m); err != nil {
			t.Fatalf("call %d: durable report: %v", i, err)
		}
		if err := refC.ReportRepair(src, dst, wantOpt, wantScheme, 120, m); err != nil {
			t.Fatalf("call %d: reference report: %v", i, err)
		}
	}

	// Beyond the decision stream, the full serialized strategy state —
	// repair RNG position, per-pair scheme arms, overhead ledgers — must
	// be byte-identical.
	var durState, refState bytes.Buffer
	if err := s.cfg.Strategy.(*core.Via).SaveState(&durState); err != nil {
		t.Fatal(err)
	}
	if err := ref.cfg.Strategy.(*core.Via).SaveState(&refState); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(durState.Bytes(), refState.Bytes()) {
		t.Error("recovered strategy state differs from reference at the byte level")
	}

	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRepairSchemeFlowsThroughHTTP: the negotiated scheme round-trips the
// wire, and a strategy without repair support degrades to no scheme.
func TestRepairSchemeFlowsThroughHTTP(t *testing.T) {
	t.Run("via", func(t *testing.T) {
		cfg := core.DefaultViaConfig(quality.Loss)
		cfg.RepairSchemes = []string{"none", "nack"}
		s := New(Config{Strategy: core.NewVia(cfg, nil), TimeScale: 3600})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		c := NewClient(ts.URL)

		opt, scheme, err := c.ChooseWithRepair(1, 2, testCands(), []string{"nack", "none"})
		if err != nil {
			t.Fatal(err)
		}
		if scheme != "nack" && scheme != "none" {
			t.Errorf("scheme = %q, want one of the offered", scheme)
		}
		if err := c.ReportRepair(1, 2, opt, scheme, 60, synthMetrics(0, opt)); err != nil {
			t.Fatal(err)
		}

		// No offer → no scheme, even with a repair-capable strategy.
		_, scheme, err = c.ChooseWithRepair(1, 2, testCands(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if scheme != "" {
			t.Errorf("unoffered scheme = %q, want empty", scheme)
		}
	})
}
