// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic substrate: the §2 measurement study
// (Table 1, Figs. 1-6), the oracle potential analysis (§3.2, Figs. 8-9),
// and the full evaluation of Via (§5, Figs. 12-18 plus the in-text
// statistics). Each experiment returns aligned text tables whose rows/series
// correspond to what the paper plots; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Env is the shared experimental environment: one world, one trace, one
// simulator, plus a cache of strategy runs so figures that need the same
// counterfactual (e.g. "via optimizing RTT") don't recompute it.
//
// The cache has singleflight semantics: concurrent requests for the same
// key block on one in-flight computation, while requests for different
// keys proceed in parallel. Env.mu only guards the entry map — never a
// strategy replay — so independent experiments overlap fully.
type Env struct {
	Seed  uint64
	Calls int

	World  *netsim.World
	Trace  []trace.CallRecord
	Runner *sim.Runner

	mu    sync.Mutex
	cache map[string]*cacheEntry // guarded by mu
}

// cacheEntry is one singleflight slot: the first requester runs the
// computation inside once; later requesters block on the same Once and
// then read res, which Once's happens-before edge publishes.
type cacheEntry struct {
	once sync.Once
	res  any
}

// NewEnv builds the default environment: the standard world (150 ASes, 24
// relays), a 28-day trace with the given call volume, and the §5.1
// simulator.
func NewEnv(seed uint64, calls int) *Env {
	w := netsim.New(netsim.DefaultConfig(seed))
	recs := trace.NewGenerator(w, trace.DefaultConfig(seed+1, calls)).GenerateSlice()
	r := sim.NewRunner(w, sim.DefaultConfig(seed+2))
	r.Prepare(recs)
	return &Env{
		Seed:   seed,
		Calls:  calls,
		World:  w,
		Trace:  recs,
		Runner: r,
		cache:  make(map[string]*cacheEntry),
	}
}

// memo executes (or returns the cached result of) an arbitrary
// computation labeled by key with singleflight semantics: compute is
// invoked exactly once per key, and concurrent callers of the same key
// wait on that single in-flight run instead of recomputing or serializing
// unrelated work behind Env.mu. A key always memoises one result type.
func memo[T any](e *Env, key string, compute func() T) T {
	e.mu.Lock()
	ent, ok := e.cache[key]
	if !ok {
		ent = &cacheEntry{}
		e.cache[key] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		ent.res = compute()
	})
	return ent.res.(T)
}

// run executes (or returns the cached result of) a strategy labeled by key.
// The factory is invoked exactly once per key — strategies are stateful and
// must be fresh per run.
func (e *Env) run(key string, mk func() core.Strategy) *sim.Result {
	return memo(e, key, func() *sim.Result {
		return e.Runner.RunOne(mk(), e.Trace)
	})
}

// Default returns the always-direct baseline run.
func (e *Env) Default() *sim.Result {
	return e.run("default", func() core.Strategy { return core.DefaultStrategy{} })
}

// OracleFor returns the oracle run optimizing metric m.
func (e *Env) OracleFor(m quality.Metric) *sim.Result {
	return e.run("oracle/"+m.String(), func() core.Strategy {
		return core.NewOracle(e.World, m)
	})
}

// ViaFor returns the full-Via run optimizing metric m.
func (e *Env) ViaFor(m quality.Metric) *sim.Result {
	return e.run("via/"+m.String(), func() core.Strategy {
		return core.NewVia(core.DefaultViaConfig(m), e.World)
	})
}

// PredictOnlyFor returns the Strawman I run.
func (e *Env) PredictOnlyFor(m quality.Metric) *sim.Result {
	return e.run("predict/"+m.String(), func() core.Strategy {
		return core.NewPredictOnly(m, e.World)
	})
}

// ExploreOnlyFor returns the Strawman II run.
func (e *Env) ExploreOnlyFor(m quality.Metric) *sim.Result {
	return e.run("explore/"+m.String(), func() core.Strategy {
		return core.NewExploreOnly(m, 0.10, e.Seed+77)
	})
}

// ViaVariant runs Via with a modified configuration, cached under label.
func (e *Env) ViaVariant(label string, m quality.Metric, mod func(*core.ViaConfig)) *sim.Result {
	return e.run("via-"+label+"/"+m.String(), func() core.Strategy {
		cfg := core.DefaultViaConfig(m)
		if mod != nil {
			mod(&cfg)
		}
		return core.NewVia(cfg, e.World)
	})
}

// reduction is the paper's relative improvement of a PNR statistic,
// treatment vs the default baseline, in percent.
func reduction(base, treated float64) float64 {
	return quality.RelativeImprovement(base, treated)
}

// atLeastOneConservative computes the paper's conservative "at least one
// bad" PNR for a family of per-metric runs: optimize each metric
// individually, and report the WORST of the three resulting
// at-least-one-bad rates (§3.2).
func atLeastOneConservative(runs map[quality.Metric]*sim.Result) float64 {
	worst := 0.0
	for _, r := range runs {
		if v := r.PNR.AtLeastOneBadRate(); v > worst {
			worst = v
		}
	}
	return worst
}

// fmtPct renders a fraction as a percentage string.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// quantileImprovement compares strategy percentiles against the baseline
// percentiles (percentile-vs-percentile, as §5.2 prescribes to avoid
// per-call bias).
func quantileImprovement(base, treated *sim.Result, m quality.Metric, q float64) float64 {
	b := stats.Quantile(base.Values[m], q)
	a := stats.Quantile(treated.Values[m], q)
	return quality.RelativeImprovement(b, a)
}
