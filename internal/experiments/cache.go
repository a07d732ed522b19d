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
		cache := newClientCache(core.NewVia(core.DefaultViaConfig(m), e.World), ttl)
		res := e.Runner.RunOne(cache, e.Trace)
		return cachedRun{res: res, saved: float64(cache.hits) / float64(cache.hits+cache.misses)}
	})
}

// clientCache places the decision cache where §7 puts it, at the client:
// a pair's decision is reused until its TTL runs out, but a call's report
// goes to the controller's strategy and never passes the cache. So a
// cached decision lives out its TTL instead of being invalidated by the
// call it decided. Both call directions share one entry, stored in
// canonical (low AS first) orientation. The table is unbounded: it holds
// at most one entry per AS pair of the world.
type clientCache struct {
	controller   core.Strategy
	ttl          float64
	entries      map[[2]netsim.ASID]cachedDecision
	hits, misses int
}

// cachedDecision is one pair's cached option (canonical orientation) and
// the hour it expires.
type cachedDecision struct {
	opt     netsim.Option
	expires float64
}

func newClientCache(controller core.Strategy, ttl float64) *clientCache {
	return &clientCache{controller: controller, ttl: ttl, entries: make(map[[2]netsim.ASID]cachedDecision)}
}

// pairKey returns the call's pair low AS first, and whether the call runs
// against that order.
func pairKey(call core.Call) ([2]netsim.ASID, bool) {
	if call.Src > call.Dst {
		return [2]netsim.ASID{call.Dst, call.Src}, true
	}
	return [2]netsim.ASID{call.Src, call.Dst}, false
}

// orient turns a transit option around when rev is set, so a route stored
// for one direction traverses its relays in the right order for the other.
func orient(opt netsim.Option, rev bool) netsim.Option {
	if rev && opt.Kind == netsim.Transit {
		opt.R1, opt.R2 = opt.R2, opt.R1
	}
	return opt
}

// Name implements core.Strategy.
func (c *clientCache) Name() string { return c.controller.Name() + "+cache" }

// Choose implements core.Strategy: serve the pair's decision while it is
// live, otherwise ask the controller and cache its answer for the TTL.
func (c *clientCache) Choose(call core.Call, cands []netsim.Option) netsim.Option {
	key, rev := pairKey(call)
	if d, ok := c.entries[key]; ok && call.THours < d.expires {
		c.hits++
		return orient(d.opt, rev)
	}
	c.misses++
	opt := c.controller.Choose(call, cands)
	c.entries[key] = cachedDecision{opt: orient(opt, rev), expires: call.THours + c.ttl}
	return opt
}

// Observe implements core.Strategy: the report reaches the controller only.
func (c *clientCache) Observe(call core.Call, opt netsim.Option, m quality.Metrics) {
	c.controller.Observe(call, opt, m)
}
