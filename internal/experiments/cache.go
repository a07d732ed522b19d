package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DecisionCaching evaluates the §7 client-side decision cache: clients
// reuse a pair's relaying decision for a TTL instead of asking the
// controller per call. The table shows the controller-load saving (cache
// hit rate) against the staleness cost (PNR), quantifying the paper's
// claim that caching can cut control traffic with modest quality impact —
// until the TTL outgrows the timescale on which the best option moves
// (Fig. 9).
func DecisionCaching(e *Env) []*stats.Table {
	m := quality.RTT
	def := e.Default().PNR.Rate(m)
	t := &stats.Table{
		Title:   "§7 extension: client-side decision caching (RTT)",
		Headers: []string{"cache TTL (h)", "controller-load saved", "PNR", "reduction vs default"},
	}
	base := e.ViaFor(m)
	t.AddRow("none", "0%", fmtPct(base.PNR.Rate(m)),
		fmt.Sprintf("%.1f%%", reduction(def, base.PNR.Rate(m))))
	for _, ttl := range []float64{1, 6, 24, 96} {
		run := e.runCached(m, ttl)
		t.AddRow(ttl, fmtPct(run.saved), fmtPct(run.res.PNR.Rate(m)),
			fmt.Sprintf("%.1f%%", reduction(def, run.res.PNR.Rate(m))))
	}
	return []*stats.Table{t}
}

// cachedRun is one memoised cache replay: the simulation result and the
// fraction of decisions the cache served (controller load saved).
type cachedRun struct {
	res   *sim.Result
	saved float64
}

// runCached replays the trace with Via behind a client-side cache of the
// given TTL (hours).
func (e *Env) runCached(m quality.Metric, ttl float64) cachedRun {
	return memo(e, fmt.Sprintf("cache-%v", ttl), func() cachedRun {
		controller := core.NewVia(core.DefaultViaConfig(m), e.World)
		cache := core.NewCached(controller, ttl)
		res := e.Runner.RunOne(clientCache{Cached: cache, controller: controller}, e.Trace)
		return cachedRun{res: res, saved: cache.HitRate()}
	})
}

// clientCache places the decision cache where §7 puts it, at the client:
// decisions come through the cache, but a call's report goes to the
// controller's strategy and never passes the cache. So a cached decision
// lives out its TTL instead of being invalidated by the call it decided.
type clientCache struct {
	*core.Cached
	controller core.Strategy
}

// Observe implements core.Strategy: the report reaches the controller only.
func (c clientCache) Observe(call core.Call, opt netsim.Option, m quality.Metrics) {
	c.controller.Observe(call, opt, m)
}
