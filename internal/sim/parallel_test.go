package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/trace"
)

// TestRunParallelMatchesSequential asserts the engine's central concurrency
// invariant: RunOne called from several goroutines on one Runner — as
// viabench -jobs drives it through experiments.Env — produces Results
// bit-identical to a sequential replay, for multiple strategies at
// multiple seeds. Common random numbers make this possible — every
// realized outcome is a pure function of (call id, option) — and the race
// detector (this test runs under `make race`) covers the memory-safety
// half.
func TestRunParallelMatchesSequential(t *testing.T) {
	calls := 20000
	if testing.Short() {
		calls = 6000
	}
	m := quality.RTT
	for _, seed := range []uint64{3, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := netsim.New(netsim.DefaultConfig(seed))
			recs := trace.NewGenerator(w, trace.DefaultConfig(seed+1, calls)).GenerateSlice()
			// Strategies are stateful (they learn from observations), so
			// each replay needs a fresh, identically-constructed set.
			mkStrategies := func() []core.Strategy {
				return []core.Strategy{
					core.DefaultStrategy{},
					core.NewOracle(w, m),
					core.NewExploreOnly(m, 0.1, seed+7),
					core.NewVia(core.DefaultViaConfig(m), w),
				}
			}
			seqRunner := NewRunner(w, DefaultConfig(seed+2))
			var seq []*Result
			for _, s := range mkStrategies() {
				seq = append(seq, seqRunner.RunOne(s, recs))
			}

			// No Prepare: the goroutines' first RunOne calls race to
			// prepare the shared runner.
			parRunner := NewRunner(w, DefaultConfig(seed+2))
			strategies := mkStrategies()
			par := make([]*Result, len(strategies))
			var wg sync.WaitGroup
			for i, s := range strategies {
				wg.Add(1)
				go func() {
					defer wg.Done()
					par[i] = parRunner.RunOne(s, recs)
				}()
			}
			wg.Wait()

			for i := range seq {
				if !reflect.DeepEqual(seq[i], par[i]) {
					t.Errorf("strategy %q: parallel result differs from sequential", seq[i].Name)
				}
			}
		})
	}
}

// TestEligibilityFlatMatchesNested rebuilds the §5.1 filter the way the
// pre-flat code did — nested map[pair]map[window] — and checks the flat
// pairWindowKey set agrees on every trace record.
func TestEligibilityFlatMatchesNested(t *testing.T) {
	w, recs := testWorldTrace(t, 40000)
	r := NewRunner(w, DefaultConfig(3))
	r.Prepare(recs)

	nested := nestedEligibility(w, r.Cfg, recs)
	for _, c := range recs {
		want := nested[history.MakePairKey(c.Src, c.Dst)][c.Window()]
		if got := r.IsEligible(c); got != want {
			t.Fatalf("IsEligible(%v) = %v, nested reference says %v", c.ID, got, want)
		}
	}

	// The precount must equal the number of records passing the filter.
	count := 0
	for _, c := range recs {
		if r.IsEligible(c) {
			count++
		}
	}
	if count != r.eligibleCalls {
		t.Errorf("eligibleCalls = %d, counted %d", r.eligibleCalls, count)
	}
}

// nestedEligibility is the reference (pre-optimization) filter shape, used
// by tests and the comparison benchmark.
func nestedEligibility(w *netsim.World, cfg Config, recs []trace.CallRecord) map[history.PairKey]map[int]bool {
	counts := make(map[history.PairKey]map[int]int)
	for _, c := range recs {
		pk := history.MakePairKey(c.Src, c.Dst)
		byW := counts[pk]
		if byW == nil {
			byW = make(map[int]int)
			counts[pk] = byW
		}
		byW[c.Window()]++
	}
	eligible := make(map[history.PairKey]map[int]bool, len(counts))
	for pk, byW := range counts {
		if len(w.Options(pk.A, pk.B)) < cfg.MinOptions {
			continue
		}
		for win, n := range byW {
			if n >= cfg.MinCallsPerWindow {
				m := eligible[pk]
				if m == nil {
					m = make(map[int]bool)
					eligible[pk] = m
				}
				m[win] = true
			}
		}
	}
	return eligible
}
