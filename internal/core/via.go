package core

import (
	"sync"

	"repro/internal/history"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/stats"
)

// ViaConfig parameterizes the full Via strategy.
type ViaConfig struct {
	// Metric is the network metric being optimized (the paper optimizes
	// each of RTT, loss and jitter individually).
	Metric quality.Metric
	// Epsilon is the fraction of calls sent to a uniformly random option
	// for general exploration outside the top-k (§4.5 modification 2).
	Epsilon float64
	// RefreshHours is T: the periodicity of stages 2-3 (tomography +
	// pruning). The paper's default is 24 hours.
	RefreshHours float64
	// UCBCoef is the exploration coefficient in Algorithm 3 (0.1).
	UCBCoef float64
	// FixedK, when positive, replaces adaptive CI-based pruning with a
	// fixed top-k by predicted mean (Fig. 15 ablation).
	FixedK int
	// NaiveNorm switches UCB reward normalization to the max-based scheme
	// (Fig. 15 ablation).
	NaiveNorm bool
	// DecayOnRefresh ages UCB state at every refresh so drifting reward
	// distributions are re-explored; 1 disables decay.
	DecayOnRefresh float64
	// MinBenefit is the minimum predicted relative benefit (on the target
	// metric) required before a call leaves the default path. §4.6's
	// premise — "relay a call only if the benefit of relaying is
	// sufficiently high" — applied even without a budget: it suppresses
	// winner's-curse relaying, where the minimum over many noisy
	// predictions looks better than the (well-estimated) direct path.
	MinBenefit float64
	// Budget caps the fraction of calls that may be relayed; >= 1 means
	// unconstrained (§4.6).
	Budget float64
	// BudgetByDuration switches the budget's unit from calls to talk-time:
	// the cap applies to the fraction of call-seconds relayed (§4.6 names
	// "bandwidth cap on call-related traffic" as an alternative model;
	// VoIP bandwidth is proportional to talk-time). Calls with unknown
	// duration count as one average call.
	BudgetByDuration bool
	// PerRelayBudget, when in (0, 1), additionally caps each relay's load
	// as a fraction of all calls seen (§4.6's "per-relay limits"): a relay
	// at its cap is pruned from the candidate set until traffic growth
	// gives it headroom again.
	PerRelayBudget float64
	// BudgetAware enables the percentile benefit gate: a call is relayed
	// only when its predicted benefit is within the top Budget-percentile
	// of historical benefits. When false, relaying is first-come
	// first-served until the cap is hit ("budget-unaware" in Fig. 16).
	BudgetAware bool
	// RepairSchemes, when non-empty, extends the option space to
	// (path, repair) pairs: ChooseRepair offers these scheme names
	// ("none", "nack", "red", "fec-k") to a per-pair bandit. Empty
	// disables repair selection (ChooseRepair then echoes from the
	// caller's candidates only).
	RepairSchemes []string
	// RepairOverheadBudget caps the talk-time-weighted fraction of
	// redundant repair bandwidth per pair (§4.6 applied to redundancy);
	// 0 defaults to 0.25 when RepairSchemes is set, >= 1 disables.
	RepairOverheadBudget float64
	// Groups sets the decision granularity (default: AS pair).
	Groups GroupFunc
	// Predictor tunes stage 2-3.
	Predictor PredictorConfig
	// Seed drives the strategy's own randomness (ε draws).
	Seed uint64
	// Metrics, when set, receives the strategy's decision telemetry:
	// per-outcome counters (via_decision_total{outcome=...}), the top-k
	// size distribution, and observation counts. Nil (the default, and
	// what every simulation experiment uses) makes instrumentation
	// zero-cost. The strategy never reads a clock through this — all
	// values are counts, so determinism is preserved.
	Metrics *obs.Registry
	// Spans, when set, receives one structured decision trace per Choose
	// call (predict → prune → budget gate → ε-explore/UCB pick), stamped
	// with the call's virtual time. Nil disables.
	Spans *obs.SpanSink
}

// DefaultViaConfig returns the paper's operating point for a target metric.
func DefaultViaConfig(m quality.Metric) ViaConfig {
	return ViaConfig{
		Metric:         m,
		Epsilon:        0.05,
		RefreshHours:   24,
		UCBCoef:        0.02,
		DecayOnRefresh: 0.9,
		MinBenefit:     0.05,
		Budget:         1,
		BudgetAware:    true,
		Groups:         ASPairGroups,
		Predictor:      DefaultPredictorConfig(),
		Seed:           1,
	}
}

// Decision outcomes — the label values of via_decision_total and the
// terminal `outcome` field of a via.choose span. One per return path of
// Choose, so the counters partition every decision made.
const (
	// OutcomeNoCandidates: the caller offered nothing to choose between.
	OutcomeNoCandidates = "no-candidates"
	// OutcomeBootstrapExplore: no usable predictions yet; the ε slice (or
	// the absence of a direct path) sent the call to a random option to
	// seed coverage.
	OutcomeBootstrapExplore = "bootstrap-explore"
	// OutcomeNoPredictions: no usable predictions and the ε draw kept the
	// call on the default path.
	OutcomeNoPredictions = "no-predictions"
	// OutcomeBudgetExhausted: the hard relaying cap (§4.6) is spent.
	OutcomeBudgetExhausted = "budget-exhausted"
	// OutcomeEpsilonExplore: the ε general-exploration slice fired.
	OutcomeEpsilonExplore = "epsilon-explore"
	// OutcomeBenefitGated: predicted benefit below the gate (percentile
	// under a budget, MinBenefit without one).
	OutcomeBenefitGated = "benefit-gated"
	// OutcomeRelayCapped: every top-k relay is at its per-relay cap.
	OutcomeRelayCapped = "relay-capped"
	// OutcomeUCBPick: the modified UCB1 exploited the top-k.
	OutcomeUCBPick = "ucb-pick"
)

// viaObs caches the strategy's metric handles so the per-decision cost
// when telemetry is on is an atomic add, and exactly zero when off.
type viaObs struct {
	enabled      bool
	spans        *obs.SpanSink
	reg          *obs.Registry
	topkSize     *obs.Histogram
	observations *obs.Counter
}

// count increments the outcome's decision counter. Registry lookups are a
// sharded RLock + map hit — fine at control-plane rates (the simulator
// runs with telemetry off).
func (o *viaObs) count(outcome string) {
	if !o.enabled {
		return
	}
	o.reg.Counter(obs.L("via_decision_total", "outcome", outcome)).Inc()
}

// decide stamps the span's terminal state, emits it, counts the outcome,
// and passes the option through — the single exit point of Choose.
func (o *viaObs) decide(trace *obs.Span, outcome string, opt netsim.Option) netsim.Option {
	o.count(outcome)
	if trace != nil {
		trace.Outcome = outcome
		trace.Option = opt.String()
		o.spans.Emit(trace)
	}
	return opt
}

type groupPair struct{ a, b int32 }

type pairState struct {
	topkEpoch int // epoch the cached top-k was computed for (-1 = none)
	topk      []Candidate
	ucb       *ucbState
	// cands remembers the pair's candidate set (canonical orientation) so
	// active probing can enumerate coverage holes.
	cands []netsim.Option
}

// Via is the full prediction-guided exploration strategy (Algorithm 1).
type Via struct {
	cfg   ViaConfig
	bb    BackboneSource
	store *history.Store
	rng   *stats.RNG
	obs   viaObs

	mu       sync.Mutex
	curEpoch int
	pred     *Predictor
	pairs    map[groupPair]*pairState

	benefit *stats.P2 // distribution of predicted relative benefit (§4.6)
	// Fleet-shared §4.6 gate (guarded by mu): when the control plane is
	// sharded, no single strategy sees the whole benefit population, so the
	// router periodically merges every shard's digest and installs the
	// fleet-wide threshold here. While installed it replaces the local
	// estimator in the gate; the local P2 keeps accumulating so the next
	// digest reflects this shard's traffic.
	sharedBenefit   bool
	sharedBenefitN  int64
	sharedBenefitTh float64

	relayed int64
	total   int64
	// Duration-weighted counters (BudgetByDuration).
	relayedSec float64
	totalSec   float64
	// Per-relay usage counters (PerRelayBudget); transit counts both ends.
	relayUse   map[netsim.RelayID]int64
	relayCalls int64

	// Repair-scheme selection (RepairStrategy). The RNG is a dedicated
	// split so repair draws never perturb the path ε sequence.
	repairRNG   *stats.RNG
	repairPairs map[groupPair]*RepairBandit

	// Reusable scratch (guarded by mu) so the uncached Choose path does
	// no per-candidate heap allocation: predictions staging for the
	// prune, the top-k inclusion fixpoint's bitmap, and the per-call
	// candidate/top-k filters.
	predScratch []Candidate
	inclScratch []bool
	candScratch []netsim.Option
	topkScratch []Candidate
}

// NewVia builds the strategy. bb may be nil (backbone links then become
// tomography unknowns).
func NewVia(cfg ViaConfig, bb BackboneSource) *Via {
	if cfg.Metric < 0 || cfg.Metric >= quality.NumMetrics {
		panic("core: invalid target metric")
	}
	if cfg.Epsilon < 0 || cfg.Epsilon >= 1 {
		panic("core: epsilon must be in [0,1)")
	}
	if cfg.RefreshHours <= 0 {
		cfg.RefreshHours = 24
	}
	if cfg.UCBCoef <= 0 {
		cfg.UCBCoef = 0.1
	}
	if cfg.DecayOnRefresh <= 0 || cfg.DecayOnRefresh > 1 {
		cfg.DecayOnRefresh = 0.3
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 1
	}
	if cfg.Groups == nil {
		cfg.Groups = ASPairGroups
	}
	validateRepairSchemes(cfg.RepairSchemes)
	if len(cfg.RepairSchemes) > 0 && cfg.RepairOverheadBudget == 0 {
		cfg.RepairOverheadBudget = 0.25
	}
	v := &Via{
		cfg:       cfg,
		bb:        bb,
		store:     history.NewStore(),
		rng:       stats.NewRNG(cfg.Seed).Split("via"),
		repairRNG: stats.NewRNG(cfg.Seed).Split("via-repair"),
		curEpoch:  -1,
		pairs:     make(map[groupPair]*pairState),
		relayUse:  make(map[netsim.RelayID]int64),
	}
	if cfg.Budget < 1 {
		v.benefit = stats.NewP2(clamp01(1-cfg.Budget, 0.001, 0.999))
	}
	v.obs = viaObs{enabled: cfg.Metrics != nil, spans: cfg.Spans, reg: cfg.Metrics}
	if v.obs.enabled {
		name := v.Name()
		v.obs.topkSize = cfg.Metrics.Histogram(
			obs.L("via_topk_size", "strategy", name), obs.CountBuckets())
		v.obs.observations = cfg.Metrics.Counter(
			obs.L("via_observations_total", "strategy", name))
		// GaugeFunc so the live relayed fraction shows up on /metrics
		// without the strategy pushing anything; replace semantics let a
		// restarted strategy under the same name rebind cleanly.
		cfg.Metrics.GaugeFunc(
			obs.L("via_strategy_relayed_fraction", "strategy", name), v.RelayedFraction)
	}
	return v
}

func clamp01(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Name implements Strategy.
func (v *Via) Name() string {
	switch {
	case v.cfg.FixedK > 0 && v.cfg.NaiveNorm:
		return "via-fixedk-naivenorm"
	case v.cfg.FixedK > 0:
		return "via-fixedk"
	case v.cfg.NaiveNorm:
		return "via-naivenorm"
	case v.cfg.Budget < 1:
		if v.cfg.BudgetAware {
			return "via-budget-aware"
		}
		return "via-budget-unaware"
	default:
		return "via"
	}
}

// Metric returns the network metric this instance optimizes.
func (v *Via) Metric() quality.Metric { return v.cfg.Metric }

// epochOf buckets absolute time into refresh epochs.
func (v *Via) epochOf(tHours float64) int {
	return int(tHours / v.cfg.RefreshHours)
}

// canonOpt orients an option for the canonical (a<=b) group direction.
func canonOpt(g1, g2 int32, opt netsim.Option) netsim.Option {
	if g1 > g2 && opt.Kind == netsim.Transit {
		opt.R1, opt.R2 = opt.R2, opt.R1
	}
	return opt
}

// ensureEpoch rebuilds the predictor when the refresh period rolls over
// (stages 2-3 of Figure 10). Callers hold v.mu.
func (v *Via) ensureEpoch(epoch int) {
	if epoch == v.curEpoch {
		return
	}
	v.curEpoch = epoch
	v.pred = BuildPredictor(v.store, epoch-1, v.bb, v.cfg.Predictor)
	for _, ps := range v.pairs {
		ps.ucb.decay(v.cfg.DecayOnRefresh)
	}
	// Old buckets are no longer consulted; cap memory on long runs.
	keep := v.cfg.Predictor.TrainBuckets
	if keep < 1 {
		keep = 1
	}
	for _, w := range v.store.Windows() {
		if w < epoch-keep-1 {
			v.store.Drop(w)
		}
	}
}

// Choose implements Algorithm 1 for one call.
func (v *Via) Choose(c Call, cands []netsim.Option) netsim.Option {
	if len(cands) == 0 {
		return v.obs.decide(nil, OutcomeNoCandidates, netsim.DirectOption())
	}
	g1, g2 := v.cfg.Groups(c)
	epoch := v.epochOf(c.THours)

	// Span construction is gated on the sink, never on the decision path:
	// with tracing off this allocates nothing and draws no randomness.
	var trace *obs.Span
	if v.cfg.Spans.Enabled() {
		trace = &obs.Span{Name: "via.choose", THours: c.THours, Src: g1, Dst: g2}
	}

	v.mu.Lock()
	defer v.mu.Unlock()
	v.ensureEpoch(epoch)

	gp := groupPair{g1, g2}
	if g1 > g2 {
		gp = groupPair{g2, g1}
	}
	ps := v.pairs[gp]
	if ps == nil {
		ps = &pairState{topkEpoch: -1, ucb: newUCBState()}
		v.pairs[gp] = ps
	}

	// Stage 3: refresh the pruned candidate set for this epoch. A proven
	// incumbent (best long-run empirical arm) is kept in the set even when
	// one refresh's noisy predictions would prune it.
	if ps.topkEpoch != epoch {
		if len(ps.cands) != len(cands) {
			ps.cands = make([]netsim.Option, len(cands))
			for i, o := range cands {
				ps.cands[i] = canonOpt(g1, g2, o)
			}
		}
		// pruneLocked returns scratch-backed storage; copy into the pair's
		// own top-k slice (reusing its capacity) before the scratch is
		// recycled for another pair.
		ps.topk = append(ps.topk[:0], v.pruneLocked(g1, g2, cands)...)
		ps.ucb.reseedStale(ps.topk, v.cfg.Metric)
		if inc, mean, ok := ps.ucb.incumbent(5); ok {
			present := false
			for _, c := range ps.topk {
				if c.Option == inc {
					present = true
					break
				}
			}
			if !present {
				var pred Prediction
				for _, met := range quality.AllMetrics() {
					pred.Mean[met] = mean // only the target metric is consulted
				}
				ps.topk = append(ps.topk, Candidate{Option: inc, Pred: pred})
			}
		}
		ps.topkEpoch = epoch
		if v.obs.topkSize != nil {
			v.obs.topkSize.Observe(float64(len(ps.topk)))
		}
	}
	if trace != nil {
		trace.AddStage("predict", map[string]float64{"candidates": float64(len(cands))}).
			AddStage("prune", map[string]float64{"topk": float64(len(ps.topk))})
	}

	v.total++
	sec := c.DurationSec
	if sec <= 0 {
		sec = 180 // an average call
	}
	v.totalSec += sec
	flip := g1 > g2

	// The benefit/budget gates compare relaying against the default path;
	// when the environment offers no direct option (the §5.5 deployment
	// omits it), there is nothing to fall back to and the gates are moot.
	hasDirect := false
	for _, o := range cands {
		if !o.IsRelayed() {
			hasDirect = true
			break
		}
	}

	// No usable predictions yet: stay on the default path except for the
	// ε general-exploration slice, which is what bootstraps coverage.
	if len(ps.topk) == 0 {
		if !hasDirect || v.rng.Float64() < v.cfg.Epsilon {
			return v.obs.decide(trace, OutcomeBootstrapExplore,
				v.accountLocked(v.pickRandomLocked(v.relayAllowedLocked(cands)), sec))
		}
		return v.obs.decide(trace, OutcomeNoPredictions, netsim.DirectOption())
	}

	if hasDirect {
		// Hard budget cap: once the relayed fraction (of calls, or of
		// talk-time under BudgetByDuration) reaches the budget, everything
		// (including exploration) goes direct.
		if v.cfg.Budget < 1 && v.budgetSpentLocked() {
			return v.obs.decide(trace, OutcomeBudgetExhausted, netsim.DirectOption())
		}
	}

	// Stage 4b: ε general exploration over all options (outside top-k
	// too). It runs ahead of the benefit gate — under a budget, part of
	// the budget is spent keeping the history fresh, without which the
	// gate would starve its own predictor.
	if v.rng.Float64() < v.cfg.Epsilon {
		return v.obs.decide(trace.AddStage("epsilon", nil), OutcomeEpsilonExplore,
			v.accountLocked(v.pickRandomLocked(v.relayAllowedLocked(cands)), sec))
	}

	// §4.6 budget gate: relay only when the predicted benefit is in the
	// top Budget-percentile of historical benefits. The budget-aware gate
	// ranks pairs across the whole population, so it uses the
	// uncertainty-penalized benefit; the per-pair filters use the mean.
	budgeted := v.cfg.Budget < 1
	conservative := budgeted && v.cfg.BudgetAware
	benefit := v.predictedBenefitLocked(g1, g2, ps, conservative)
	if v.benefit != nil {
		v.benefit.Add(benefit)
	}
	if trace != nil {
		trace.AddStage("budget-gate", map[string]float64{"benefit": benefit})
	}
	switch {
	case !hasDirect:
		// No default path to prefer: proceed straight to exploitation.
	case budgeted && v.cfg.BudgetAware:
		if n, th := v.budgetGateLocked(); n >= 20 && benefit < th {
			return v.obs.decide(trace, OutcomeBenefitGated, netsim.DirectOption())
		}
	case budgeted && !v.cfg.BudgetAware:
		// The paper's budget-unaware baseline: relay whenever there is any
		// potential benefit, first-come first-served — so the budget gets
		// used up by calls with only small benefit (§5.4).
		if benefit <= 0 {
			return v.obs.decide(trace, OutcomeBenefitGated, netsim.DirectOption())
		}
	default:
		// Unbudgeted: selective relaying — without a clear predicted
		// benefit, stay on the default path (ε exploration above still
		// samples relays, so the history keeps refreshing).
		if v.cfg.MinBenefit > 0 && benefit < v.cfg.MinBenefit {
			return v.obs.decide(trace, OutcomeBenefitGated, netsim.DirectOption())
		}
	}

	// Stage 4a: modified UCB1 over the top-k (Algorithm 3), skipping any
	// relay that has exhausted its per-relay share.
	topk := ps.topk
	if v.cfg.PerRelayBudget > 0 && v.cfg.PerRelayBudget < 1 {
		topk = v.filterTopKLocked(topk)
		if len(topk) == 0 {
			return v.obs.decide(trace, OutcomeRelayCapped, netsim.DirectOption())
		}
	}
	opt := ps.ucb.explore(topk, v.cfg.Metric, v.cfg.UCBCoef, v.cfg.NaiveNorm)
	if flip && opt.Kind == netsim.Transit {
		opt.R1, opt.R2 = opt.R2, opt.R1
	}
	return v.obs.decide(trace.AddStage("ucb-pick", nil), OutcomeUCBPick,
		v.accountLocked(opt, sec))
}

// pruneLocked builds predictions for the candidates and applies Algorithm 2
// (or the fixed-k ablation). Candidates and the returned set are in
// canonical orientation. The result aliases the strategy's reusable
// prediction scratch — valid only until the next pruneLocked call, so
// callers that retain it must copy (Choose copies into the pair's own
// top-k storage).
func (v *Via) pruneLocked(g1, g2 int32, cands []netsim.Option) []Candidate {
	preds := v.predScratch[:0]
	for _, opt := range cands {
		copt := canonOpt(g1, g2, opt)
		if p, ok := v.pred.Predict(g1, g2, copt); ok {
			preds = append(preds, Candidate{Option: copt, Pred: p})
		}
	}
	v.predScratch = preds[:0]
	if len(preds) == 0 {
		return nil
	}
	if v.cfg.FixedK > 0 {
		return fixedTopKInPlace(preds, v.cfg.Metric, v.cfg.FixedK)
	}
	var sel []Candidate
	sel, v.inclScratch = topKInPlace(preds, v.cfg.Metric, v.inclScratch)
	return sel
}

// predictedBenefitLocked estimates the relative gain of the best predicted
// relaying option over the direct path on the target metric. With
// conservative set, the relay side is scored by its 95% upper confidence
// bound instead of its mean: the budget gate ranks pairs across the whole
// population, and the minimum over many noisy relay predictions is biased
// low (winner's curse) — an uncertainty-penalized benefit selects pairs
// whose gain is confidently real.
func (v *Via) predictedBenefitLocked(g1, g2 int32, ps *pairState, conservative bool) float64 {
	m := v.cfg.Metric
	direct, okD := v.pred.Predict(g1, g2, netsim.DirectOption())
	best := 0.0
	okB := false
	for _, c := range ps.topk {
		if !c.Option.IsRelayed() {
			continue
		}
		score := c.Pred.Mean[m]
		if conservative {
			score = c.Pred.Upper(m)
		}
		if !okB || score < best {
			best = score
			okB = true
		}
	}
	if !okB {
		return 0 // nothing to relay through
	}
	directV := direct.Mean[m]
	if !okD || directV <= 0 {
		// No direct prediction in the training window — common for pairs
		// Via has been relaying consistently (their recent history is all
		// relayed). Fall back to the long-memory empirical estimate; if
		// even that is missing, relaying has no demonstrated benefit and
		// must not crowd out pairs with a known gain.
		if v2, ok := ps.ucb.empiricalMean(netsim.DirectOption()); ok && v2 > 0 {
			directV = v2
		} else {
			return 0
		}
	}
	return (directV - best) / directV
}

func (v *Via) pickRandomLocked(cands []netsim.Option) netsim.Option {
	return cands[v.rng.IntN(len(cands))]
}

// accountLocked tracks the relayed-call counters for budget enforcement.
func (v *Via) accountLocked(opt netsim.Option, sec float64) netsim.Option {
	if opt.IsRelayed() {
		v.relayed++
		v.relayedSec += sec
		v.relayCalls++
		switch opt.Kind {
		case netsim.Bounce:
			v.relayUse[opt.R1]++
		case netsim.Transit:
			v.relayUse[opt.R1]++
			v.relayUse[opt.R2]++
		}
	}
	return opt
}

// budgetSpentLocked reports whether the hard cap is exhausted in the
// configured unit.
func (v *Via) budgetSpentLocked() bool {
	if v.cfg.BudgetByDuration {
		return v.relayedSec >= v.cfg.Budget*v.totalSec
	}
	return float64(v.relayed) >= v.cfg.Budget*float64(v.total)
}

// relayOverCapLocked reports whether a relay has exceeded its per-relay
// load cap. The denominator is all calls seen, not relayed calls: a
// relayed-call denominator can deadlock (every relay over cap stops all
// relaying, freezing the denominator forever).
func (v *Via) relayOverCapLocked(r netsim.RelayID) bool {
	if v.cfg.PerRelayBudget <= 0 || v.cfg.PerRelayBudget >= 1 || v.total < 50 {
		return false
	}
	return float64(v.relayUse[r]) >= v.cfg.PerRelayBudget*float64(v.total)
}

// relayAllowedLocked filters a candidate list down to options whose relays
// have per-relay headroom (direct always passes).
func (v *Via) relayAllowedLocked(cands []netsim.Option) []netsim.Option {
	if v.cfg.PerRelayBudget <= 0 || v.cfg.PerRelayBudget >= 1 {
		return cands
	}
	out := v.candScratch[:0]
	for _, o := range cands {
		switch o.Kind {
		case netsim.Bounce:
			if v.relayOverCapLocked(o.R1) {
				continue
			}
		case netsim.Transit:
			if v.relayOverCapLocked(o.R1) || v.relayOverCapLocked(o.R2) {
				continue
			}
		}
		out = append(out, o)
	}
	v.candScratch = out[:0] // keep grown capacity for the next call
	if len(out) == 0 {
		return cands[:1] // degenerate: keep something choosable
	}
	return out
}

// filterTopKLocked drops top-k candidates whose relays are over their cap.
// The result aliases reusable scratch: consume it before releasing v.mu.
func (v *Via) filterTopKLocked(topk []Candidate) []Candidate {
	out := v.topkScratch[:0]
	for _, c := range topk {
		switch c.Option.Kind {
		case netsim.Bounce:
			if v.relayOverCapLocked(c.Option.R1) {
				continue
			}
		case netsim.Transit:
			if v.relayOverCapLocked(c.Option.R1) || v.relayOverCapLocked(c.Option.R2) {
				continue
			}
		}
		out = append(out, c)
	}
	v.topkScratch = out[:0] // keep grown capacity for the next call
	return out
}

// Observe implements Strategy: fold the realized performance into the call
// history (stage 1) and the per-pair UCB state.
func (v *Via) Observe(c Call, opt netsim.Option, m quality.Metrics) {
	g1, g2 := v.cfg.Groups(c)
	bucket := v.epochOf(c.THours)
	v.store.Add(netsim.ASID(g1), netsim.ASID(g2), opt, bucket, m)

	gp := groupPair{g1, g2}
	copt := canonOpt(g1, g2, opt)
	if g1 > g2 {
		gp = groupPair{g2, g1}
	}
	v.mu.Lock()
	ps := v.pairs[gp]
	if ps == nil {
		ps = &pairState{topkEpoch: -1, ucb: newUCBState()}
		v.pairs[gp] = ps
	}
	ps.ucb.observe(copt, m.Get(v.cfg.Metric))
	v.mu.Unlock()
	if v.obs.observations != nil {
		v.obs.observations.Inc()
	}
}

// budgetGateLocked returns the (sample count, threshold) pair the §4.6
// budget-aware gate compares against: the fleet-merged values when a shard
// router has installed them, the local percentile estimator otherwise.
// Callers hold v.mu.
func (v *Via) budgetGateLocked() (int64, float64) {
	if v.sharedBenefit {
		return v.sharedBenefitN, v.sharedBenefitTh
	}
	if v.benefit == nil || v.benefit.N() < 20 {
		return int64(0), 0
	}
	return int64(v.benefit.N()), v.benefit.Value()
}

// BudgetDigest reports the local §4.6 benefit-percentile state for
// cross-shard aggregation: the sample count and (once the estimator has
// enough samples to be meaningful) the current threshold. ok is false when
// no budget is configured — there is nothing to aggregate.
func (v *Via) BudgetDigest() (n int64, threshold float64, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.benefit == nil {
		return 0, 0, false
	}
	n = int64(v.benefit.N())
	if n >= 20 {
		threshold = v.benefit.Value()
	}
	return n, threshold, true
}

// BudgetSketch exposes the local benefit estimator's full P² marker state.
// The five (height, position) markers are a piecewise-linear CDF sketch of
// the local benefit population, which a shard router can merge across the
// fleet by inverting the sample-weighted mixture CDF — unlike averaging
// per-shard quantiles, that merge stays faithful when shards see skewed
// slices of the pair population. ok is false when no budget is configured.
func (v *Via) BudgetSketch() (stats.P2State, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.benefit == nil {
		return stats.P2State{}, false
	}
	return v.benefit.State(), true
}

// SetSharedBudgetThreshold installs the fleet-merged §4.6 gate: from now on
// the budget-aware gate compares predicted benefit against this threshold
// (with n standing in for the warm-up sample count) instead of the local
// estimator. The local estimator keeps accumulating so future digests stay
// current. A durable controller logs the install as a WAL record before
// calling this, so replay reproduces the same gate decisions.
func (v *Via) SetSharedBudgetThreshold(n int64, threshold float64) {
	v.mu.Lock()
	v.sharedBenefit = true
	v.sharedBenefitN = n
	v.sharedBenefitTh = threshold
	v.mu.Unlock()
}

// RelayedFraction reports the fraction of calls this strategy sent through
// the overlay — the budget consumption of Fig. 16.
func (v *Via) RelayedFraction() float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.total == 0 {
		return 0
	}
	return float64(v.relayed) / float64(v.total)
}

// TopKFor exposes the current pruned candidate set for a pair (diagnostics
// and the §5.3 prediction-accuracy experiment).
func (v *Via) TopKFor(c Call, cands []netsim.Option) []Candidate {
	g1, g2 := v.cfg.Groups(c)
	v.mu.Lock()
	defer v.mu.Unlock()
	v.ensureEpoch(v.epochOf(c.THours))
	// pruneLocked hands back scratch; the caller gets an owned copy.
	return append([]Candidate(nil), v.pruneLocked(g1, g2, cands)...)
}
