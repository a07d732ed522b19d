package ring

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/stats"
	"repro/internal/transport"
)

// TestMergeThresholdAccuracy is the accuracy half of what the shard-chaos
// soak used to assert against a wall-clock-scheduled oracle: fixed, seeded
// sample sets are partitioned into K per-shard P² estimators exactly as a
// fleet's benefit samples are, the K digests go through mergeThreshold, and
// the result is compared with the exact quantile of the union. No fleet, no
// timer, no second population — the only error left is the sketch's.
//
// Tolerance, stated as the gate feels it (the threshold decides which
// fraction of calls may relay): the merged value must lie between the
// union's exact quantiles at p−eps and p+eps, widened by 0.2 % of the
// sample range so a point mass (a flat stretch of the CDF) is not held to
// the last digit. eps is 0.01 on smooth populations and 0.20 where zipf
// load gives every shard its own clumpy slice — five markers per shard are
// that coarse there, which is the open ROADMAP item (a mergeable sketch),
// not something this test hides. DESIGN.md §16 repeats these numbers.
func TestMergeThresholdAccuracy(t *testing.T) {
	const (
		samples = 4000
		p       = 0.2 // 1 − Budget at the default budget of 0.8
		slack   = 0.002
	)
	populations := []struct {
		name string
		eps  float64
		// source returns the population's sampler: call i yields one
		// benefit sample and the shard (of k) that sees it.
		source func(rng *stats.RNG, k int) func(i int) (float64, int)
	}{
		{"uniform", 0.01, func(rng *stats.RNG, k int) func(int) (float64, int) {
			return func(i int) (float64, int) { return rng.Float64(), i % k }
		}},
		{"point-mass-at-zero", 0.01, func(rng *stats.RNG, k int) func(int) (float64, int) {
			// 40 % of calls predict no benefit at all, so the p-quantile
			// sits inside the mass.
			return func(i int) (float64, int) {
				if rng.Float64() < 0.4 {
					return 0, i % k
				}
				return 0.5 * rng.Float64(), i % k
			}
		}},
		{"zipf-skewed-shards", 0.20, func(rng *stats.RNG, k int) func(int) (float64, int) {
			// 64 pairs with zipf call volume, each with its own benefit
			// level; a pair lives on one shard, so shard sizes are skewed
			// and every shard sees a different multi-modal slice.
			const pairs = 64
			zipf := stats.NewZipf(rng, pairs, 1.1)
			level := make([]float64, pairs)
			for j := range level {
				level[j] = 0.5 * rng.Float64()
			}
			return func(int) (float64, int) {
				pair := zipf.Sample()
				return level[pair] + 0.02*rng.Float64(), pair % k
			}
		}},
	}
	for _, pop := range populations {
		for _, k := range []int{3, 4, 8} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/k=%d/seed=%d", pop.name, k, seed), func(t *testing.T) {
					draw := pop.source(stats.NewRNG(seed), k)
					shards := make([]*stats.P2, k)
					for i := range shards {
						shards[i] = stats.NewP2(p)
					}
					union := make([]float64, samples)
					for i := range union {
						x, shard := draw(i)
						union[i] = x
						shards[shard].Add(x)
					}
					digests := make([]transport.BudgetDigestResponse, k)
					for i, e := range shards {
						st := e.State()
						digests[i] = transport.BudgetDigestResponse{OK: true, N: int64(st.N),
							Threshold: e.Value(), P: st.P, Q: st.Q, Pos: st.Pos}
					}
					got := mergeThreshold(digests)

					sort.Float64s(union)
					span := union[len(union)-1] - union[0]
					lo := stats.QuantileSorted(union, p-pop.eps) - slack*span
					hi := stats.QuantileSorted(union, p+pop.eps) + slack*span
					if got < lo || got > hi {
						t.Errorf("merged threshold %.4f outside [%.4f, %.4f] (exact %.0f%% quantile %.4f, eps %.2f)",
							got, lo, hi, 100*p, stats.QuantileSorted(union, p), pop.eps)
					}
				})
			}
		}
	}
}

// TestAggregateBudgetSkipsSketchlessDigest: a digest with n >= 20 but no
// P² sketch (P == 0) counts toward the fleet's sample total and is not
// merged; the threshold is the sketched shard's alone, and every shard
// installs it.
func TestAggregateBudgetSkipsSketchlessDigest(t *testing.T) {
	e := stats.NewP2(0.2)
	rng := stats.NewRNG(1)
	for i := 0; i < 40; i++ {
		e.Add(rng.Float64())
	}
	st := e.State()
	sketched := transport.BudgetDigestResponse{OK: true, N: int64(st.N), Threshold: e.Value(), P: st.P, Q: st.Q, Pos: st.Pos}
	bare := transport.BudgetDigestResponse{OK: true, N: 100, Threshold: 0.9}
	want := mergeThreshold([]transport.BudgetDigestResponse{sketched})

	var shards []Shard
	installed := make([]float64, 2)
	for i, d := range []transport.BudgetDigestResponse{sketched, bare} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/budget/digest":
				writeJSON(w, d)
			case "/v1/budget/merged":
				var req transport.BudgetMergedRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					t.Error(err)
				}
				installed[i] = req.Threshold
				writeJSON(w, transport.BudgetMergedResponse{OK: true})
			default:
				http.NotFound(w, r)
			}
		}))
		defer ts.Close()
		shards = append(shards, Shard{ID: i, URL: ts.URL})
	}
	m, err := NewMap(0, shards...)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewRouter(m, nil).AggregateBudget()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Shards != 2 || agg.Warmed != 1 || agg.N != sketched.N+bare.N || agg.Threshold != want || agg.Installed != 2 {
		t.Errorf("aggregate %+v, want 2 shards, 1 warmed, n %d, threshold %v, 2 installed",
			agg, sketched.N+bare.N, want)
	}
	if installed[0] != want || installed[1] != want {
		t.Errorf("shards installed %v, want %v on both", installed, want)
	}
}
