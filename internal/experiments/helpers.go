package experiments

import (
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/stats"
)

// filteredStrategy restricts the candidate set a strategy may choose from
// (e.g. bounce-only for the §5.2 transit-value comparison). The ~2% of
// seeded (connectivity-relayed) calls bypass the strategy and may still use
// filtered-out options; that bias is shared by every variant.
type filteredStrategy struct {
	inner  core.Strategy
	filter func([]netsim.Option) []netsim.Option
}

func (f *filteredStrategy) Name() string { return f.inner.Name() + "+filtered" }

func (f *filteredStrategy) Choose(c core.Call, cands []netsim.Option) netsim.Option {
	return f.inner.Choose(c, f.filter(cands))
}

func (f *filteredStrategy) Observe(c core.Call, o netsim.Option, m quality.Metrics) {
	f.inner.Observe(c, o, m)
}

// runWithFilter runs Via restricted to a filtered candidate set.
func (e *Env) runWithFilter(key string, m quality.Metric, filter func([]netsim.Option) []netsim.Option) *sim.Result {
	return e.run(key, func() core.Strategy {
		return &filteredStrategy{
			inner:  core.NewVia(core.DefaultViaConfig(m), e.World),
			filter: filter,
		}
	})
}

// runExcluding runs Via on a simulator whose candidate sets exclude the
// given relays (Fig. 17c).
func (e *Env) runExcluding(key string, m quality.Metric, excluded map[netsim.RelayID]bool) *sim.Result {
	return memo(e, key, func() *sim.Result {
		cfg := e.Runner.Cfg
		cfg.ExcludeRelays = excluded
		runner := sim.NewRunner(e.World, cfg)
		runner.Prepare(e.Trace)
		return runner.RunOne(core.NewVia(core.DefaultViaConfig(m), e.World), e.Trace)
	})
}

// historyFromSparseSurvey builds a history bucket with k samples of
// relaying options for every pair, drawn from the world at the given
// window. Each option is covered with the given probability; the rest are
// "holes" that tomography must stitch — the operating regime of the §5.3
// prediction-accuracy analysis (coverage 1 is the dense ground truth).
func historyFromSparseSurvey(e *Env, pairs []history.PairKey, window, k int, coverage float64) *history.Store {
	h := history.NewStore()
	rng := stats.NewRNG(e.Seed).Split("survey")
	t := float64(window)*netsim.HoursPerWindow + 12
	for _, pk := range pairs {
		for _, opt := range e.World.Options(pk.A, pk.B) {
			if coverage < 1 && rng.Float64() >= coverage {
				continue
			}
			for i := 0; i < k; i++ {
				m := e.World.SampleCall(pk.A, pk.B, opt, t, rng)
				h.Add(pk.A, pk.B, opt, window, m)
			}
		}
	}
	return h
}
