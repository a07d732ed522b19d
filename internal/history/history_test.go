package history

import (
	"sync"
	"testing"

	"repro/internal/netsim"
	"repro/internal/quality"
)

func q(rtt, loss, jit float64) quality.Metrics {
	return quality.Metrics{RTTMs: rtt, LossRate: loss, JitterMs: jit}
}

func TestStoreAddGet(t *testing.T) {
	s := NewStore()
	opt := netsim.BounceOption(3)
	s.Add(5, 9, opt, 2, q(100, 0.01, 5))
	s.Add(5, 9, opt, 2, q(200, 0.02, 7))

	a, ok := s.Get(5, 9, opt, 2)
	if !ok {
		t.Fatal("aggregate missing")
	}
	if a.N() != 2 {
		t.Fatalf("N = %d", a.N())
	}
	if a.Metrics[quality.RTT].Mean != 150 {
		t.Errorf("RTT mean = %v", a.Metrics[quality.RTT].Mean)
	}
	if a.PNR.Poor[quality.Loss] != 1 {
		t.Errorf("poor loss count = %d", a.PNR.Poor[quality.Loss])
	}
	if _, ok := s.Get(5, 9, opt, 3); ok {
		t.Error("wrong window should miss")
	}
	if _, ok := s.Get(5, 9, netsim.DirectOption(), 2); ok {
		t.Error("wrong option should miss")
	}
}

func TestStoreDirectionPooling(t *testing.T) {
	// Both call directions must pool into the same aggregate, with transit
	// orientation flipped.
	s := NewStore()
	s.Add(9, 5, netsim.TransitOption(1, 2), 0, q(100, 0, 0))
	a, ok := s.Get(5, 9, netsim.TransitOption(2, 1), 0)
	if !ok || a.N() != 1 {
		t.Fatal("reverse-direction lookup should find the flipped transit")
	}
	// Bounce is symmetric as-is.
	s.Add(9, 5, netsim.BounceOption(7), 0, q(50, 0, 0))
	if _, ok := s.Get(5, 9, netsim.BounceOption(7), 0); !ok {
		t.Fatal("bounce should pool across directions")
	}
}

func TestStoreOptionsOrientation(t *testing.T) {
	s := NewStore()
	s.Add(5, 9, netsim.TransitOption(1, 2), 0, q(1, 0, 0))
	s.Add(5, 9, netsim.DirectOption(), 0, q(1, 0, 0))
	s.Add(5, 9, netsim.DirectOption(), 0, q(1, 0, 0))

	fwd := s.options(5, 9, 0)
	if len(fwd) != 2 {
		t.Fatalf("got %d options", len(fwd))
	}
	if fwd[0].Option != netsim.DirectOption() || fwd[0].N != 2 {
		t.Errorf("fwd[0] = %+v", fwd[0])
	}
	if fwd[1].Option != netsim.TransitOption(1, 2) {
		t.Errorf("fwd[1] = %+v", fwd[1])
	}

	rev := s.options(9, 5, 0)
	if rev[1].Option != netsim.TransitOption(2, 1) {
		t.Errorf("reverse orientation not flipped: %+v", rev[1])
	}
	if s.options(5, 9, 7) != nil {
		t.Error("empty window should return nil")
	}
}

func TestStoreWindowsAndDrop(t *testing.T) {
	s := NewStore()
	s.Add(1, 2, netsim.DirectOption(), 3, q(1, 0, 0))
	s.Add(1, 2, netsim.DirectOption(), 1, q(1, 0, 0))
	ws := s.Windows()
	if len(ws) != 2 || ws[0] != 1 || ws[1] != 3 {
		t.Fatalf("Windows = %v", ws)
	}
	s.Drop(1)
	if ws := s.Windows(); len(ws) != 1 || ws[0] != 3 {
		t.Fatalf("after Drop: %v", ws)
	}
}

func TestStoreEachOpt(t *testing.T) {
	s := NewStore()
	s.Add(1, 2, netsim.DirectOption(), 0, q(1, 0, 0))
	s.Add(3, 4, netsim.BounceOption(1), 0, q(1, 0, 0))
	visited := 0
	s.EachOpt(0, func(p PairKey, o netsim.Option, a *Agg) {
		visited++
		if a.N() != 1 {
			t.Errorf("agg N = %d", a.N())
		}
		// Re-entrancy: the callback may query the store.
		_, _ = s.Get(p.A, p.B, o, 0)
	})
	if visited != 2 {
		t.Errorf("visited %d aggregates", visited)
	}
	s.EachOpt(99, func(PairKey, netsim.Option, *Agg) {
		t.Error("empty window should not visit")
	})
}

func TestStoreConcurrentAdd(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Add(netsim.ASID(g%3), netsim.ASID(10), netsim.DirectOption(), 0, q(100, 0, 0))
			}
		}(g)
	}
	wg.Wait()
	var total int64
	s.EachOpt(0, func(_ PairKey, _ netsim.Option, a *Agg) { total += a.N() })
	if total != 8*500 {
		t.Errorf("lost updates: %d", total)
	}
}

func TestMakePairKey(t *testing.T) {
	if MakePairKey(9, 5) != (PairKey{5, 9}) {
		t.Error("not canonical")
	}
	if MakePairKey(5, 9) != (PairKey{5, 9}) {
		t.Error("already canonical changed")
	}
}

func TestWorstPairContribution(t *testing.T) {
	p := NewPairWindowPNR()
	bad := q(400, 0.05, 30) // poor on all metrics
	good := q(50, 0.001, 1)
	// Pair (1,2): 10 poor calls; pair (3,4): 5 poor; pair (5,6): none.
	for i := 0; i < 10; i++ {
		p.AddObservation(PairKey{1, 2}, 0, bad)
	}
	for i := 0; i < 5; i++ {
		p.AddObservation(PairKey{3, 4}, 0, bad)
	}
	for i := 0; i < 20; i++ {
		p.AddObservation(PairKey{5, 6}, 0, good)
	}
	fr := p.WorstPairContribution([]int{1, 2, 3})
	if !almostEq(fr[0], 10.0/15) || !almostEq(fr[1], 1) || !almostEq(fr[2], 1) {
		t.Errorf("contribution = %v", fr)
	}
	// Oversized rank is clamped.
	fr2 := p.WorstPairContribution([]int{100})
	if !almostEq(fr2[0], 1) {
		t.Errorf("clamped contribution = %v", fr2)
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestHighPNRPersistencePrevalence(t *testing.T) {
	p := NewPairWindowPNR()
	bad := q(400, 0.05, 30)
	good := q(50, 0.001, 1)
	// Background pair keeps overall PNR low across 10 windows.
	for w := 0; w < 10; w++ {
		for i := 0; i < 50; i++ {
			p.AddObservation(PairKey{100, 101}, w, good)
		}
		// One poor background call so overall PNR is nonzero.
		p.AddObservation(PairKey{100, 101}, w, bad)
	}
	// Chronic pair: bad in all 10 windows.
	for w := 0; w < 10; w++ {
		for i := 0; i < 10; i++ {
			p.AddObservation(PairKey{1, 2}, w, bad)
		}
	}
	// Intermittent pair: bad in windows 2,3 and 7 only.
	for w := 0; w < 10; w++ {
		m := good
		if w == 2 || w == 3 || w == 7 {
			m = bad
		}
		for i := 0; i < 10; i++ {
			p.AddObservation(PairKey{3, 4}, w, m)
		}
	}

	st := p.HighPNR(quality.RTT, 1.5, 5, 5)
	if len(st.Prevalence) != 2 {
		t.Fatalf("expected 2 ever-high pairs, got %d (prevalences %v)", len(st.Prevalence), st.Prevalence)
	}
	// One pair with prevalence 1.0 (chronic) and one with 0.3.
	hasChronic, hasIntermittent := false, false
	for i := range st.Prevalence {
		switch {
		case almostEq(st.Prevalence[i], 1):
			hasChronic = true
			if st.Persistence[i] != 10 {
				t.Errorf("chronic persistence = %v, want 10", st.Persistence[i])
			}
		case almostEq(st.Prevalence[i], 0.3):
			hasIntermittent = true
			// Runs are {2,1}; median run (upper) = 2.
			if st.Persistence[i] != 2 {
				t.Errorf("intermittent persistence = %v, want 2", st.Persistence[i])
			}
		}
	}
	if !hasChronic || !hasIntermittent {
		t.Errorf("prevalences = %v", st.Prevalence)
	}
}

func TestHighPNRFiltersSparsePairs(t *testing.T) {
	p := NewPairWindowPNR()
	bad := q(400, 0.05, 30)
	// Only 2 windows of data: below the 5-window floor.
	for w := 0; w < 2; w++ {
		for i := 0; i < 10; i++ {
			p.AddObservation(PairKey{1, 2}, w, bad)
		}
	}
	st := p.HighPNR(quality.RTT, 1.5, 5, 5)
	if len(st.Prevalence) != 0 {
		t.Errorf("sparse pair should be excluded, got %v", st.Prevalence)
	}
}

func TestMedianRunLengthGaps(t *testing.T) {
	// Windows 0,1,2 then a gap then 5,6: highs on 1,2 and 5,6 — the gap
	// must break the run even though both are high.
	windows := []int{0, 1, 2, 5, 6}
	high := []bool{false, true, true, true, true}
	// Runs: {2 (w1-2), 2 (w5-6)} → median 2.
	if got := medianRunLength(windows, high); got != 2 {
		t.Errorf("run length = %v, want 2", got)
	}
	// All low → 0.
	if got := medianRunLength(windows, make([]bool, 5)); got != 0 {
		t.Errorf("all-low run length = %v", got)
	}
}
