package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/stats"
)

// fakeEnv drives a strategy against a stationary two-option environment:
// direct is mediocre, bounce(1) is good, bounce(2) is bad.
type fakeEnv struct {
	rng   *stats.RNG
	truth map[netsim.Option]quality.Metrics
}

func newFakeEnv(seed uint64) *fakeEnv {
	return &fakeEnv{
		rng: stats.NewRNG(seed),
		truth: map[netsim.Option]quality.Metrics{
			netsim.DirectOption():      {RTTMs: 300, LossRate: 0.010, JitterMs: 10},
			netsim.BounceOption(1):     {RTTMs: 120, LossRate: 0.002, JitterMs: 3},
			netsim.BounceOption(2):     {RTTMs: 500, LossRate: 0.060, JitterMs: 40},
			netsim.TransitOption(1, 2): {RTTMs: 260, LossRate: 0.004, JitterMs: 5},
		},
	}
}

func (e *fakeEnv) options() []netsim.Option {
	return []netsim.Option{
		netsim.DirectOption(), netsim.BounceOption(1),
		netsim.BounceOption(2), netsim.TransitOption(1, 2),
	}
}

func (e *fakeEnv) sample(opt netsim.Option) quality.Metrics {
	m := e.truth[opt]
	f := e.rng.LogNormal(0, 0.15)
	return quality.Metrics{
		RTTMs:    m.RTTMs * f,
		LossRate: m.LossRate * e.rng.LogNormal(0, 0.3),
		JitterMs: m.JitterMs * e.rng.LogNormal(0, 0.3),
	}
}

// drive runs n calls of strategy s against the environment, returning how
// often each option was chosen in the final quarter (post-convergence).
func drive(s Strategy, e *fakeEnv, n int, hoursSpan float64) map[netsim.Option]int {
	late := map[netsim.Option]int{}
	for i := 0; i < n; i++ {
		c := Call{Src: 3, Dst: 9, UserSrc: int64(i), UserDst: int64(i + 1),
			THours: hoursSpan * float64(i) / float64(n)}
		opt := s.Choose(c, e.options())
		s.Observe(c, opt, e.sample(opt))
		if i >= 3*n/4 {
			late[opt]++
		}
	}
	return late
}

func TestViaConvergesToBestOption(t *testing.T) {
	v := NewVia(DefaultViaConfig(quality.RTT), nil)
	e := newFakeEnv(1)
	late := drive(v, e, 4000, 96) // 4 refresh epochs
	best := late[netsim.BounceOption(1)]
	total := 0
	for _, n := range late {
		total += n
	}
	if best*10 < total*7 {
		t.Errorf("best option picked %d/%d of late calls; want >70%%", best, total)
	}
}

func TestViaName(t *testing.T) {
	mk := func(mod func(*ViaConfig)) string {
		cfg := DefaultViaConfig(quality.RTT)
		mod(&cfg)
		return NewVia(cfg, nil).Name()
	}
	if got := mk(func(*ViaConfig) {}); got != "via" {
		t.Errorf("name = %q", got)
	}
	if got := mk(func(c *ViaConfig) { c.FixedK = 2 }); got != "via-fixedk" {
		t.Errorf("name = %q", got)
	}
	if got := mk(func(c *ViaConfig) { c.NaiveNorm = true }); got != "via-naivenorm" {
		t.Errorf("name = %q", got)
	}
	if got := mk(func(c *ViaConfig) { c.Budget = 0.3 }); got != "via-budget-aware" {
		t.Errorf("name = %q", got)
	}
	if got := mk(func(c *ViaConfig) { c.Budget = 0.3; c.BudgetAware = false }); got != "via-budget-unaware" {
		t.Errorf("name = %q", got)
	}
}

func TestViaBudgetCapHonored(t *testing.T) {
	for _, aware := range []bool{true, false} {
		cfg := DefaultViaConfig(quality.RTT)
		cfg.Budget = 0.25
		cfg.BudgetAware = aware
		v := NewVia(cfg, nil)
		e := newFakeEnv(2)
		drive(v, e, 3000, 96)
		if frac := v.RelayedFraction(); frac > 0.26 {
			t.Errorf("aware=%v: relayed fraction %v exceeds budget 0.25", aware, frac)
		}
	}
}

func TestViaUnbudgetedRelaysFreely(t *testing.T) {
	v := NewVia(DefaultViaConfig(quality.RTT), nil)
	e := newFakeEnv(3)
	drive(v, e, 3000, 96)
	if frac := v.RelayedFraction(); frac < 0.5 {
		t.Errorf("relayed fraction %v; with a clearly better relay it should dominate", frac)
	}
}

func TestViaEmptyCandidates(t *testing.T) {
	v := NewVia(DefaultViaConfig(quality.RTT), nil)
	if got := v.Choose(Call{THours: 1}, nil); got != netsim.DirectOption() {
		t.Errorf("empty candidates should yield direct, got %v", got)
	}
}

func TestViaColdStartIsDirectMostly(t *testing.T) {
	cfg := DefaultViaConfig(quality.RTT)
	cfg.Epsilon = 0 // no exploration at all
	v := NewVia(cfg, nil)
	e := newFakeEnv(4)
	// With no history and no ε, every call must take the default path.
	for i := 0; i < 50; i++ {
		c := Call{Src: 1, Dst: 2, THours: float64(i) * 0.01}
		if got := v.Choose(c, e.options()); got != netsim.DirectOption() {
			t.Fatalf("cold start chose %v", got)
		}
	}
}

func TestViaEpsilonExplores(t *testing.T) {
	cfg := DefaultViaConfig(quality.RTT)
	cfg.Epsilon = 0.5
	v := NewVia(cfg, nil)
	e := newFakeEnv(5)
	relayed := 0
	for i := 0; i < 400; i++ {
		c := Call{Src: 1, Dst: 2, THours: float64(i) * 0.01}
		opt := v.Choose(c, e.options())
		if opt.IsRelayed() {
			relayed++
		}
		v.Observe(c, opt, e.sample(opt))
	}
	// ~50% ε over 4 options → ~37% relayed draws even with no predictions.
	if relayed < 50 {
		t.Errorf("ε exploration produced only %d relayed calls", relayed)
	}
}

func TestViaDeterministicGivenSeed(t *testing.T) {
	run := func() []netsim.Option {
		v := NewVia(DefaultViaConfig(quality.RTT), nil)
		e := newFakeEnv(6)
		var picks []netsim.Option
		for i := 0; i < 500; i++ {
			c := Call{Src: 1, Dst: 2, THours: 96 * float64(i) / 500}
			opt := v.Choose(c, e.options())
			picks = append(picks, opt)
			v.Observe(c, opt, e.sample(opt))
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical runs", i)
		}
	}
}

func TestViaDirectionSymmetry(t *testing.T) {
	// Observations from both call directions should pool: feed only d→s
	// samples, then ask for s→d and expect the learned option.
	cfg := DefaultViaConfig(quality.RTT)
	cfg.Epsilon = 0
	v := NewVia(cfg, nil)
	e := newFakeEnv(7)
	for i := 0; i < 800; i++ {
		c := Call{Src: 9, Dst: 3, THours: 48 * float64(i) / 800}
		opt := v.Choose(c, e.options())
		v.Observe(c, opt, e.sample(opt))
	}
	// Seed explicit relay samples so the predictor knows bounce(1).
	for i := 0; i < 50; i++ {
		c := Call{Src: 9, Dst: 3, THours: 47.9}
		v.Observe(c, netsim.BounceOption(1), e.sample(netsim.BounceOption(1)))
	}
	c := Call{Src: 3, Dst: 9, THours: 49} // reverse direction, next epoch
	opt := v.Choose(c, e.options())
	if !opt.IsRelayed() {
		t.Errorf("reverse direction did not benefit from pooled history: %v", opt)
	}
}

func TestDefaultStrategy(t *testing.T) {
	var d DefaultStrategy
	if d.Name() != "default" {
		t.Error("name")
	}
	if d.Choose(Call{}, []netsim.Option{netsim.BounceOption(1)}) != netsim.DirectOption() {
		t.Error("default must always choose direct")
	}
	d.Observe(Call{}, netsim.DirectOption(), quality.Metrics{}) // must not panic
}

func TestOracleChoosesGroundTruthBest(t *testing.T) {
	w := netsim.New(netsim.DefaultConfig(1))
	o := NewOracle(w, quality.RTT)
	if o.Name() != "oracle" {
		t.Error("name")
	}
	src, dst := netsim.ASID(0), netsim.ASID(149)
	cands := w.Options(src, dst)
	got := o.Choose(Call{Src: src, Dst: dst, THours: 30}, cands)
	want, _ := w.BestOption(src, dst, cands, 1, quality.RTT)
	if got != want {
		t.Errorf("oracle chose %v, ground-truth best is %v", got, want)
	}
	if o.Choose(Call{Src: src, Dst: dst}, nil) != netsim.DirectOption() {
		t.Error("empty candidates should yield direct")
	}
}

func TestBudgetedOracleRespectsBudget(t *testing.T) {
	w := netsim.New(netsim.DefaultConfig(1))
	o := NewBudgetedOracle(w, quality.RTT, 0.2)
	if o.Name() != "oracle-budget" {
		t.Error("name")
	}
	relayed, total := 0, 0
	for i := 0; i < 2000; i++ {
		src := netsim.ASID(i % 50)
		dst := netsim.ASID(149 - i%50)
		cands := w.Options(src, dst)
		opt := o.Choose(Call{Src: src, Dst: dst, THours: float64(i) * 0.01}, cands)
		total++
		if opt.IsRelayed() {
			relayed++
		}
	}
	if frac := float64(relayed) / float64(total); frac > 0.22 {
		t.Errorf("budgeted oracle relayed %v of calls", frac)
	}
}

func TestPredictOnlyLearnsFromSeededHistory(t *testing.T) {
	p := NewPredictOnly(quality.RTT, nil)
	if p.Name() != "predict-only" {
		t.Error("name")
	}
	e := newFakeEnv(8)
	// Seed epoch 0 with samples of every option (the connectivity-relayed
	// calls of the real dataset).
	for i := 0; i < 20; i++ {
		for _, opt := range e.options() {
			p.Observe(Call{Src: 1, Dst: 2, THours: 0.5}, opt, e.sample(opt))
		}
	}
	// In epoch 1, it should pick the best predicted option.
	got := p.Choose(Call{Src: 1, Dst: 2, THours: 25}, e.options())
	if got != netsim.BounceOption(1) {
		t.Errorf("predict-only chose %v, want bounce(1)", got)
	}
}

func TestPredictOnlyColdStartDirect(t *testing.T) {
	p := NewPredictOnly(quality.RTT, nil)
	e := newFakeEnv(9)
	if got := p.Choose(Call{Src: 1, Dst: 2, THours: 1}, e.options()); got != netsim.DirectOption() {
		t.Errorf("cold start chose %v", got)
	}
}

func TestExploreOnlyEventuallyFindsGood(t *testing.T) {
	x := NewExploreOnly(quality.RTT, 0.2, 1)
	if x.Name() != "explore-only" {
		t.Error("name")
	}
	e := newFakeEnv(10)
	late := drive(x, e, 4000, 96)
	best := late[netsim.BounceOption(1)]
	total := 0
	for _, n := range late {
		total += n
	}
	// ε-greedy does find the good arm on a single stationary pair; its
	// weakness (exercised in the sim tests) is scale, not this toy case.
	if best*2 < total {
		t.Errorf("explore-only late best-arm share %d/%d", best, total)
	}
}

func TestExploreOnlyEmptyCandidates(t *testing.T) {
	x := NewExploreOnly(quality.RTT, 0.2, 1)
	if got := x.Choose(Call{}, nil); got != netsim.DirectOption() {
		t.Errorf("empty candidates gave %v", got)
	}
}

func TestGroupFuncs(t *testing.T) {
	c := Call{Src: 3, Dst: 9, UserSrc: 17, UserDst: -5}
	a, b := ASPairGroups(c)
	if a != 3 || b != 9 {
		t.Error("ASPairGroups")
	}
	sub := SubASGroups(4)
	a, b = sub(c)
	if a != 3*4+17%4 {
		t.Errorf("SubASGroups src = %d", a)
	}
	if b < 9*4 || b >= 10*4 {
		t.Errorf("SubASGroups negative user id mapped out of range: %d", b)
	}
	w := netsim.New(netsim.DefaultConfig(1))
	cg := CountryGroups(w)
	c1 := Call{Src: w.ASesInCountry("US")[0], Dst: w.ASesInCountry("US")[1]}
	g1, g2 := cg(c1)
	if g1 != g2 {
		t.Error("two US ASes should share a country group")
	}
	c2 := Call{Src: w.ASesInCountry("US")[0], Dst: w.ASesInCountry("IN")[0]}
	g1, g2 = cg(c2)
	if g1 == g2 {
		t.Error("US and IN should differ")
	}
}

func TestViaPanicsOnBadConfig(t *testing.T) {
	bad := []ViaConfig{
		func() ViaConfig { c := DefaultViaConfig(quality.RTT); c.Metric = quality.NumMetrics; return c }(),
		func() ViaConfig { c := DefaultViaConfig(quality.RTT); c.Epsilon = 1.5; return c }(),
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			NewVia(cfg, nil)
		}()
	}
}

func TestViaPerRelayBudget(t *testing.T) {
	// With a per-relay cap, no single relay may dominate the relayed mix.
	cfg := DefaultViaConfig(quality.RTT)
	cfg.PerRelayBudget = 0.4
	cfg.MinBenefit = 0
	v := NewVia(cfg, nil)
	e := newFakeEnv(31) // bounce(1) is by far the best option
	drive(v, e, 3000, 96)
	v.mu.Lock()
	use := make(map[netsim.RelayID]int64, len(v.relayUse))
	for r, n := range v.relayUse {
		use[r] = n
	}
	relayCalls := v.relayCalls
	total := v.total
	v.mu.Unlock()
	if relayCalls < 100 {
		t.Fatalf("only %d relayed calls", relayCalls)
	}
	for r, n := range use {
		share := float64(n) / float64(total)
		// The warmup window allows mild overshoot past the 40% cap.
		if share > 0.45 {
			t.Errorf("relay %d holds %.0f%% of all calls despite 40%% cap", r, share*100)
		}
	}
	// Without the cap, the dominant relay takes far more.
	cfgFree := DefaultViaConfig(quality.RTT)
	cfgFree.MinBenefit = 0
	vFree := NewVia(cfgFree, nil)
	drive(vFree, newFakeEnv(31), 3000, 96)
	vFree.mu.Lock()
	freeShare := float64(vFree.relayUse[1]) / float64(vFree.total)
	vFree.mu.Unlock()
	if freeShare < 0.5 {
		t.Errorf("uncapped dominant-relay share only %.2f; cap test not meaningful", freeShare)
	}
}

func TestViaDurationBudget(t *testing.T) {
	// Budget on talk-time: long calls consume more budget than short ones.
	cfg := DefaultViaConfig(quality.RTT)
	cfg.Budget = 0.25
	cfg.BudgetByDuration = true
	v := NewVia(cfg, nil)
	e := newFakeEnv(32)
	for i := 0; i < 3000; i++ {
		dur := 60.0
		if i%2 == 0 {
			dur = 600 // alternating long calls
		}
		c := Call{Src: 3, Dst: 9, THours: 96 * float64(i) / 3000, DurationSec: dur}
		opt := v.Choose(c, e.options())
		v.Observe(c, opt, e.sample(opt))
	}
	v.mu.Lock()
	frac := v.relayedSec / v.totalSec
	v.mu.Unlock()
	if frac > 0.27 {
		t.Errorf("relayed talk-time fraction %.3f exceeds 0.25 budget", frac)
	}
}

func TestViaEpsilonTracksDrift(t *testing.T) {
	// §4.5 modification 2: without general exploration outside the top-k,
	// Via is blindsided when an option that looked bad becomes the best.
	// Build an environment where bounce(2) is terrible for the first half
	// of the run, then becomes clearly the best.
	run := func(eps float64) float64 {
		cfg := DefaultViaConfig(quality.RTT)
		cfg.Epsilon = eps
		cfg.MinBenefit = 0
		v := NewVia(cfg, nil)
		rng := stats.NewRNG(50)
		opts := []netsim.Option{
			netsim.DirectOption(), netsim.BounceOption(1), netsim.BounceOption(2),
		}
		truth := func(opt netsim.Option, i, n int) float64 {
			switch opt {
			case netsim.BounceOption(1):
				return 200
			case netsim.BounceOption(2):
				if i < n/2 {
					return 700
				}
				return 60 // the drifted-in winner
			default:
				return 300
			}
		}
		const n = 6000
		var lateSum float64
		var lateN int
		for i := 0; i < n; i++ {
			c := Call{Src: 1, Dst: 2, THours: 240 * float64(i) / n}
			opt := v.Choose(c, opts)
			val := truth(opt, i, n) * rng.LogNormal(0, 0.1)
			v.Observe(c, opt, quality.Metrics{RTTMs: val, LossRate: 0.001, JitterMs: 1})
			if i >= 9*n/10 {
				lateSum += val
				lateN++
			}
		}
		return lateSum / float64(lateN)
	}
	withEps := run(0.05)
	withoutEps := run(0)
	// With ε, the final-decile RTT should reflect discovery of the new
	// best option; without it, Via can stay stuck on the old one.
	if withEps >= withoutEps {
		t.Errorf("ε exploration did not help under drift: with=%.0f without=%.0f", withEps, withoutEps)
	}
	if withEps > 150 {
		t.Errorf("with ε, final-decile RTT %.0f; never found the drifted-in best", withEps)
	}
}

// TestViaMetricsAndSpans drives an instrumented Via and checks the
// telemetry contract: one via_decision_total increment and one JSONL span
// per Choose, outcome strings agreeing between the two, observations
// counted, and the gauge surfaced through the registry.
func TestViaMetricsAndSpans(t *testing.T) {
	reg := obs.NewRegistry()
	var spanBuf bytes.Buffer
	cfg := DefaultViaConfig(quality.RTT)
	cfg.Metrics = reg
	cfg.Spans = obs.NewSpanSink(&spanBuf)
	v := NewVia(cfg, nil)
	e := newFakeEnv(40)

	const n = 600
	for i := 0; i < n; i++ {
		c := Call{Src: 3, Dst: 9, THours: 48 * float64(i) / n}
		opt := v.Choose(c, e.options())
		v.Observe(c, opt, e.sample(opt))
	}

	snap := reg.Snapshot()
	var decisions float64
	for name, val := range snap {
		if strings.HasPrefix(name, "via_decision_total{") {
			decisions += val
		}
	}
	if decisions != n {
		t.Errorf("via_decision_total sums to %v, want %d", decisions, n)
	}
	if got := snap[obs.L("via_observations_total", "strategy", "via")]; got != n {
		t.Errorf("via_observations_total = %v, want %d", got, n)
	}
	if _, ok := snap[obs.L("via_strategy_relayed_fraction", "strategy", "via")]; !ok {
		t.Error("via_strategy_relayed_fraction gauge missing from snapshot")
	}
	if got := snap[obs.L("via_topk_size_count", "strategy", "via")]; got < 1 {
		t.Errorf("via_topk_size_count = %v, want >= 1 epoch refresh", got)
	}

	// Every span line decodes, names the decision, and its outcome matches
	// a counted outcome; spans and decisions tally 1:1.
	lines := strings.Split(strings.TrimSpace(spanBuf.String()), "\n")
	if len(lines) != n {
		t.Fatalf("emitted %d spans, want %d", len(lines), n)
	}
	outcomes := map[string]int{}
	for i, line := range lines {
		var sp obs.Span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("span line %d: %v", i, err)
		}
		if sp.Name != "via.choose" || sp.Outcome == "" || sp.Option == "" {
			t.Fatalf("span line %d malformed: %+v", i, sp)
		}
		outcomes[sp.Outcome]++
	}
	for outcome, count := range outcomes {
		if got := snap[obs.L("via_decision_total", "outcome", outcome)]; got != float64(count) {
			t.Errorf("outcome %q: %d spans vs counter %v", outcome, count, got)
		}
	}
	if got := cfg.Spans.Emitted(); got != n {
		t.Errorf("sink emitted %d, want %d", got, n)
	}
}

// TestViaInstrumentationIsInert asserts the zero-cost invariant behind the
// parallel runner's bit-identity: attaching metrics and spans must not
// change a single decision, because instrumentation draws no randomness
// and never feeds back into the algorithm.
func TestViaInstrumentationIsInert(t *testing.T) {
	run := func(instrument bool) []netsim.Option {
		cfg := DefaultViaConfig(quality.RTT)
		if instrument {
			cfg.Metrics = obs.NewRegistry()
			cfg.Spans = obs.NewSpanSink(&bytes.Buffer{})
		}
		v := NewVia(cfg, nil)
		e := newFakeEnv(41)
		picks := make([]netsim.Option, 0, 800)
		for i := 0; i < 800; i++ {
			c := Call{Src: 1, Dst: 2, THours: 96 * float64(i) / 800}
			opt := v.Choose(c, e.options())
			picks = append(picks, opt)
			v.Observe(c, opt, e.sample(opt))
		}
		return picks
	}
	plain, instrumented := run(false), run(true)
	for i := range plain {
		if plain[i] != instrumented[i] {
			t.Fatalf("decision %d differs with instrumentation attached", i)
		}
	}
}
