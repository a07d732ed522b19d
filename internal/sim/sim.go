// Package sim is the trace-driven simulator of §5.1: it replays a call
// workload in chronological order against one or more relay-selection
// strategies, realizes each assigned call's performance from the
// ground-truth world model (the analogue of sampling a random call between
// the same AS pair over the same option in the same 24-hour window), feeds
// the measurements back to the strategy, and accounts PNR, metric
// distributions, option mix, and per-class/per-country breakdowns.
//
// Common random numbers: the realized performance of (call, option) is a
// deterministic function of the call id and option, so two strategies that
// make the same decision for a call observe the same outcome — the fair
// comparison the paper's pool-sampling methodology provides.
package sim

import (
	"sync"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config parameterizes a simulation run.
type Config struct {
	Seed uint64
	// MinCallsPerWindow is the §5.1 eligibility filter: only calls on AS
	// pairs with at least this many calls in the 24-hour window are
	// evaluated (strategies still see and learn from the rest).
	MinCallsPerWindow int
	// MinOptions is the second §5.1 filter: the pair must have at least
	// this many relaying options available.
	MinOptions int
	// SeedFraction diverts a small fraction of calls to a uniformly random
	// relaying option regardless of strategy — the stand-in for the real
	// dataset's connectivity-relayed calls (NAT/firewall traversal), which
	// give every approach baseline coverage of relay paths.
	SeedFraction float64
	// CollectValues keeps per-call metric values for percentile analyses
	// (Figs. 8a, 12b). Costs memory proportional to eligible calls.
	CollectValues bool
	// ExcludeRelays removes relays from every candidate set — the relay
	// deployment sensitivity analysis of Fig. 17c.
	ExcludeRelays map[netsim.RelayID]bool
	// ActiveProbesPerWindow lets strategies implementing
	// core.ProbeRequester place that many mock calls at each 24-hour
	// window boundary (§7's active-measurement extension). Probe results
	// feed the strategy's history but are not evaluated calls.
	ActiveProbesPerWindow int
	// Metrics, when set, receives per-run telemetry: per-strategy call
	// throughput counters (folded in once at the end of each RunOne, never
	// on the per-call path) and the world's cache hit/miss gauges. The
	// registry only counts — it draws no randomness and reads no clock —
	// so instrumented runs stay bit-identical to uninstrumented ones.
	Metrics *obs.Registry
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:              seed,
		MinCallsPerWindow: 10,
		MinOptions:        5,
		SeedFraction:      0.02,
		CollectValues:     true,
	}
}

// Result aggregates one strategy's outcomes over the eligible calls.
type Result struct {
	Name     string
	Eligible int64
	PNR      quality.PNR

	// Values[m] holds per-call realized values of metric m (eligible calls
	// only), present when Config.CollectValues is set.
	Values [quality.NumMetrics][]float64

	// Option mix over eligible calls.
	Direct, Bounce, Transit int64

	// Class breakdowns.
	International, Domestic quality.PNR
	// ByCountry accumulates PNR per country for calls with at least one
	// endpoint in that country (Figs. 4b, 14).
	ByCountry map[string]*quality.PNR
	// RelayUsage counts eligible calls touching each relay (transit calls
	// count both endpoints' relays) — Fig. 17c's usage ranking.
	RelayUsage map[netsim.RelayID]int64
	// Probes counts the active measurements placed on the strategy's
	// behalf (its §7 measurement cost).
	Probes int64
}

// RelayedFraction is the share of eligible calls sent through the overlay.
func (r *Result) RelayedFraction() float64 {
	if r.Eligible == 0 {
		return 0
	}
	return float64(r.Bounce+r.Transit) / float64(r.Eligible)
}

// OptionShare returns the fraction of eligible calls using each kind.
func (r *Result) OptionShare() (direct, bounce, transit float64) {
	if r.Eligible == 0 {
		return 0, 0, 0
	}
	n := float64(r.Eligible)
	return float64(r.Direct) / n, float64(r.Bounce) / n, float64(r.Transit) / n
}

// pairWindowKey identifies one (AS pair, 24h window) cell of the §5.1
// eligibility filter. Keeping the pair and window in one flat key means
// the per-call IsEligible check costs a single map hash instead of the
// two chained lookups a nested map[pair]map[window] needs.
type pairWindowKey struct {
	pair   history.PairKey
	window int32
}

// Runner replays traces against strategies. After Prepare returns, all
// Runner state is read-only (the RNG root is split, never consumed), so
// any number of RunOne calls may proceed concurrently.
type Runner struct {
	World *netsim.World
	Cfg   Config

	root *stats.RNG

	// prepMu serializes Prepare against concurrent lazy preparation; the
	// fields below are written only under it and are immutable once
	// Prepare returns, so the per-call hot path reads them without locks.
	prepMu sync.Mutex
	// eligibleSet is the flat §5.1 filter: membership means the (pair,
	// window) cell is evaluated.
	eligibleSet map[pairWindowKey]struct{}
	// pairWindows lists each eligible pair's eligible windows in
	// ascending order — the iteration form the analyses consume.
	pairWindows map[history.PairKey][]int
	// eligibleCalls counts trace records that pass the filter, giving
	// RunOne the exact capacity for Result.Values.
	eligibleCalls int
}

// NewRunner builds a runner for a world.
func NewRunner(w *netsim.World, cfg Config) *Runner {
	if cfg.MinCallsPerWindow <= 0 {
		cfg.MinCallsPerWindow = 10
	}
	if cfg.MinOptions <= 0 {
		cfg.MinOptions = 5
	}
	r := &Runner{
		World: w,
		Cfg:   cfg,
		root:  stats.NewRNG(cfg.Seed).Split("sim"),
	}
	if cfg.Metrics != nil {
		// Cache telemetry is read lazily at scrape/snapshot time from the
		// world's atomics — registering costs the replay loop nothing.
		cfg.Metrics.GaugeFunc("via_netsim_path_cache_hits",
			func() float64 { return float64(w.CacheStats().PathHits) })
		cfg.Metrics.GaugeFunc("via_netsim_path_cache_misses",
			func() float64 { return float64(w.CacheStats().PathMisses) })
		cfg.Metrics.GaugeFunc("via_netsim_segment_cache_hits",
			func() float64 { return float64(w.CacheStats().SegmentHits) })
		cfg.Metrics.GaugeFunc("via_netsim_segment_cache_misses",
			func() float64 { return float64(w.CacheStats().SegmentMisses) })
	}
	return r
}

// Prepare precomputes the eligibility filter for a trace (RunOne does it
// on first use otherwise). It must not run concurrently with RunOne: it
// replaces the read-only state RunOne's hot path consumes.
func (r *Runner) Prepare(recs []trace.CallRecord) {
	r.prepMu.Lock()
	defer r.prepMu.Unlock()
	r.prepareLocked(recs)
}

func (r *Runner) prepareLocked(recs []trace.CallRecord) {
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
	set := make(map[pairWindowKey]struct{}, len(counts))
	pairWindows := make(map[history.PairKey][]int, len(counts))
	eligibleCalls := 0
	for pk, byW := range counts {
		opts := r.World.Options(pk.A, pk.B)
		if len(opts) < r.Cfg.MinOptions {
			continue
		}
		for w, n := range byW {
			if n >= r.Cfg.MinCallsPerWindow {
				set[pairWindowKey{pk, int32(w)}] = struct{}{}
				pairWindows[pk] = insertSorted(pairWindows[pk], w)
				eligibleCalls += n
			}
		}
	}
	r.eligibleSet = set
	r.pairWindows = pairWindows
	r.eligibleCalls = eligibleCalls
}

// ensurePrepared lazily prepares the runner for callers that skip Prepare.
// It always takes prepMu (once per run, not per call) so concurrent first
// uses synchronize; after it returns the eligibility state is immutable
// and the per-call hot path reads it without locks.
func (r *Runner) ensurePrepared(recs []trace.CallRecord) {
	r.prepMu.Lock()
	defer r.prepMu.Unlock()
	if r.eligibleSet == nil {
		r.prepareLocked(recs)
	}
}

// insertSorted inserts w into an ascending slice, keeping it sorted.
func insertSorted(ws []int, w int) []int {
	i := len(ws)
	for i > 0 && ws[i-1] > w {
		i--
	}
	ws = append(ws, 0)
	copy(ws[i+1:], ws[i:])
	ws[i] = w
	return ws
}

// IsEligible reports whether a call participates in evaluation.
func (r *Runner) IsEligible(c trace.CallRecord) bool {
	_, ok := r.eligibleSet[pairWindowKey{history.MakePairKey(c.Src, c.Dst), int32(c.Window())}]
	return ok
}

// realize draws the realized performance of assigning option opt to call c.
// It is deterministic in (call id, option): common random numbers across
// strategies.
func (r *Runner) realize(c trace.CallRecord, opt netsim.Option) quality.Metrics {
	key := uint64(c.ID)*0x9e3779b97f4a7c15 ^
		uint64(opt.Kind)<<62 ^ uint64(uint32(opt.R1))<<31 ^ uint64(uint32(opt.R2))
	rng := r.root.SplitN("realize", key)
	return r.World.SampleCall(c.Src, c.Dst, opt, c.THours, rng)
}

// seedDecision returns, deterministically per call, whether this call is a
// connectivity-relayed (seeded) call and which candidate index it uses.
func (r *Runner) seedDecision(c trace.CallRecord, nCands int) (bool, int) {
	if r.Cfg.SeedFraction <= 0 || nCands == 0 {
		return false, 0
	}
	rng := r.root.SplitN("seed", uint64(c.ID))
	if rng.Float64() >= r.Cfg.SeedFraction {
		return false, 0
	}
	return true, rng.IntN(nCands)
}

// RunOne replays the trace against a single strategy. Prepare must have
// been called with the same trace.
func (r *Runner) RunOne(s core.Strategy, recs []trace.CallRecord) *Result {
	r.ensurePrepared(recs)
	res := &Result{
		Name:       s.Name(),
		ByCountry:  make(map[string]*quality.PNR),
		RelayUsage: make(map[netsim.RelayID]int64),
	}
	if r.Cfg.CollectValues {
		// Exact-capacity preallocation from the Prepare precount: the
		// values slices are the dominant per-run allocation and must
		// never regrow mid-replay.
		for _, met := range quality.AllMetrics() {
			res.Values[met] = make([]float64, 0, r.eligibleCalls)
		}
	}
	// scratch is reused across calls by filterOptions; strategies receive
	// it read-only for the duration of Choose and never retain it.
	var scratch []netsim.Option
	prober, _ := s.(core.ProbeRequester)
	lastWindow := -1
	for _, rec := range recs {
		// Active measurements fire at window boundaries, before the
		// window's calls (the controller schedules them off-peak).
		if w := rec.Window(); w != lastWindow {
			lastWindow = w
			if prober != nil && r.Cfg.ActiveProbesPerWindow > 0 {
				res.Probes += r.placeProbes(prober, s, w, rec.THours)
			}
		}
		cands := r.World.Options(rec.Src, rec.Dst)
		if len(r.Cfg.ExcludeRelays) > 0 {
			scratch = filterOptions(scratch[:0], cands, r.Cfg.ExcludeRelays)
			cands = scratch
		}
		call := core.Call{
			Src: rec.Src, Dst: rec.Dst,
			UserSrc: rec.UserSrc, UserDst: rec.UserDst,
			THours:      rec.THours,
			DurationSec: rec.Duration,
		}

		var opt netsim.Option
		if seeded, idx := r.seedDecision(rec, len(cands)); seeded {
			opt = cands[idx]
		} else {
			opt = s.Choose(call, cands)
		}
		m := r.realize(rec, opt)
		s.Observe(call, opt, m)

		if !r.IsEligible(rec) {
			continue
		}
		res.Eligible++
		res.PNR.Add(m)
		switch opt.Kind {
		case netsim.Direct:
			res.Direct++
		case netsim.Bounce:
			res.Bounce++
			res.RelayUsage[opt.R1]++
		case netsim.Transit:
			res.Transit++
			res.RelayUsage[opt.R1]++
			res.RelayUsage[opt.R2]++
		}
		if r.Cfg.CollectValues {
			for _, met := range quality.AllMetrics() {
				res.Values[met] = append(res.Values[met], m.Get(met))
			}
		}
		if r.World.International(rec.Src, rec.Dst) {
			res.International.Add(m)
		} else {
			res.Domestic.Add(m)
		}
		countries, nc := r.callCountries(rec)
		for _, country := range countries[:nc] {
			pnr := res.ByCountry[country]
			if pnr == nil {
				pnr = &quality.PNR{}
				res.ByCountry[country] = pnr
			}
			pnr.Add(m)
		}
	}
	if reg := r.Cfg.Metrics; reg != nil {
		// One fold-in per run keeps telemetry off the per-call path.
		reg.Counter(obs.L("via_sim_calls_total", "strategy", res.Name)).Add(int64(len(recs)))
		reg.Counter(obs.L("via_sim_eligible_total", "strategy", res.Name)).Add(res.Eligible)
		reg.Counter(obs.L("via_sim_relayed_total", "strategy", res.Name)).Add(res.Bounce + res.Transit)
		reg.Counter(obs.L("via_sim_probes_total", "strategy", res.Name)).Add(res.Probes)
	}
	return res
}

// callCountries returns the distinct endpoint countries of a call in a
// fixed-size array (allocation-free: this runs once per eligible call).
func (r *Runner) callCountries(c trace.CallRecord) ([2]string, int) {
	a := r.World.CountryOf(c.Src)
	b := r.World.CountryOf(c.Dst)
	if a == b {
		return [2]string{a}, 1
	}
	return [2]string{a, b}, 2
}

// placeProbes realizes a strategy's active-measurement requests for a
// window and feeds the results back through Observe.
func (r *Runner) placeProbes(p core.ProbeRequester, s core.Strategy, window int, tHours float64) int64 {
	reqs := p.ProbeRequests(window, r.Cfg.ActiveProbesPerWindow)
	for i, req := range reqs {
		key := uint64(window)<<32 ^ uint64(i)*0x9e3779b97f4a7c15 ^ 0xabcdef
		rng := r.root.SplitN("probe", key)
		m := r.World.SampleCall(req.Src, req.Dst, req.Option, tHours, rng)
		s.Observe(core.Call{Src: req.Src, Dst: req.Dst, THours: tHours}, req.Option, m)
	}
	return int64(len(reqs))
}

// filterOptions appends the options not touching excluded relays to dst
// (the direct path always survives) and returns the extended slice. dst is
// a caller-owned scratch buffer, reused across calls.
func filterOptions(dst, cands []netsim.Option, excluded map[netsim.RelayID]bool) []netsim.Option {
	for _, o := range cands {
		switch o.Kind {
		case netsim.Bounce:
			if excluded[o.R1] {
				continue
			}
		case netsim.Transit:
			if excluded[o.R1] || excluded[o.R2] {
				continue
			}
		}
		dst = append(dst, o)
	}
	return dst
}
