package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/trace"
)

func testWorldTrace(t testing.TB, calls int) (*netsim.World, []trace.CallRecord) {
	t.Helper()
	w := netsim.New(netsim.DefaultConfig(1))
	recs := trace.NewGenerator(w, trace.DefaultConfig(2, calls)).GenerateSlice()
	return w, recs
}

func TestPrepareEligibility(t *testing.T) {
	w, recs := testWorldTrace(t, 40000)
	r := NewRunner(w, DefaultConfig(3))
	r.Prepare(recs)

	pairs := r.EligiblePairs()
	if len(pairs) == 0 {
		t.Fatal("no eligible pairs")
	}
	// Every eligible (pair, window) must really have >= MinCallsPerWindow
	// calls in the trace.
	byKey := map[string]int{}
	for _, c := range recs {
		byKey[keyOf(c)]++
	}
	checked := 0
	for _, c := range recs {
		if r.IsEligible(c) {
			if byKey[keyOf(c)] < r.Cfg.MinCallsPerWindow {
				t.Fatalf("eligible call on sparse pair-window (%d calls)", byKey[keyOf(c)])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no eligible calls")
	}
	// There must also be ineligible calls (the long tail).
	if checked == len(recs) {
		t.Error("every call eligible; filter not active")
	}
}

func keyOf(c trace.CallRecord) string {
	a, b := c.Src, c.Dst
	if a > b {
		a, b = b, a
	}
	return string(rune(a)) + "|" + string(rune(b)) + "|" + string(rune(c.Window()))
}

func TestRealizeCommonRandomNumbers(t *testing.T) {
	w, recs := testWorldTrace(t, 100)
	r := NewRunner(w, DefaultConfig(3))
	c := recs[10]
	opt := netsim.BounceOption(2)
	a := r.realize(c, opt)
	b := r.realize(c, opt)
	if a != b {
		t.Error("realize not deterministic per (call, option)")
	}
	if r.realize(c, netsim.BounceOption(3)) == a {
		t.Error("different options should realize differently")
	}
	if r.realize(recs[11], opt) == a {
		t.Error("different calls should realize differently")
	}
}

func TestSeedFractionApplied(t *testing.T) {
	w, recs := testWorldTrace(t, 40000)
	cfg := DefaultConfig(3)
	cfg.SeedFraction = 0.10
	r := NewRunner(w, cfg)
	res := r.RunOne(core.DefaultStrategy{}, recs)
	// The default strategy never relays, so every relayed eligible call is
	// a seeded one. Expect roughly SeedFraction × (1 − 1/|options|).
	frac := res.RelayedFraction()
	if frac < 0.05 || frac > 0.13 {
		t.Errorf("seeded relay fraction = %v, want ~0.095", frac)
	}
	// Option mix counters add up.
	if res.Direct+res.Bounce+res.Transit != res.Eligible {
		t.Error("option mix does not sum to eligible calls")
	}
}

func TestNoSeedingWhenDisabled(t *testing.T) {
	w, recs := testWorldTrace(t, 20000)
	cfg := DefaultConfig(3)
	cfg.SeedFraction = 0
	r := NewRunner(w, cfg)
	res := r.RunOne(core.DefaultStrategy{}, recs)
	if res.RelayedFraction() != 0 {
		t.Errorf("default strategy relayed %v with seeding off", res.RelayedFraction())
	}
}

func TestCollectValues(t *testing.T) {
	w, recs := testWorldTrace(t, 20000)
	cfg := DefaultConfig(3)
	cfg.CollectValues = true
	r := NewRunner(w, cfg)
	res := r.RunOne(core.DefaultStrategy{}, recs)
	for _, m := range quality.AllMetrics() {
		if int64(len(res.Values[m])) != res.Eligible {
			t.Errorf("values[%v] length %d != eligible %d", m, len(res.Values[m]), res.Eligible)
		}
	}
	cfg.CollectValues = false
	r2 := NewRunner(w, cfg)
	res2 := r2.RunOne(core.DefaultStrategy{}, recs)
	if len(res2.Values[quality.RTT]) != 0 {
		t.Error("values collected despite CollectValues=false")
	}
}

func TestClassBreakdownsConsistent(t *testing.T) {
	w, recs := testWorldTrace(t, 30000)
	r := NewRunner(w, DefaultConfig(3))
	res := r.RunOne(core.DefaultStrategy{}, recs)
	if res.International.Total+res.Domestic.Total != res.Eligible {
		t.Error("intl+domestic != eligible")
	}
	var byCountry int64
	for _, pnr := range res.ByCountry {
		byCountry += pnr.Total
	}
	// Each international call counts in two countries, domestic in one.
	want := res.Domestic.Total + 2*res.International.Total
	if byCountry != want {
		t.Errorf("country totals %d, want %d", byCountry, want)
	}
}

func TestOracleImprovesEverything(t *testing.T) {
	w, recs := testWorldTrace(t, 60000)
	r := NewRunner(w, DefaultConfig(3))
	results := r.run([]core.Strategy{
		core.DefaultStrategy{},
		core.NewOracle(w, quality.RTT),
	}, recs)
	def, orc := results[0], results[1]
	if orc.PNR.Rate(quality.RTT) >= def.PNR.Rate(quality.RTT)*0.5 {
		t.Errorf("oracle RTT PNR %v vs default %v; want large reduction",
			orc.PNR.Rate(quality.RTT), def.PNR.Rate(quality.RTT))
	}
	red := quality.RelativeImprovement(def.PNR.AtLeastOneBadRate(), orc.PNR.AtLeastOneBadRate())
	// §3.2: the oracle cuts at-least-one-bad PNR by over 30%.
	if red < 30 {
		t.Errorf("oracle at-least-one-bad reduction = %.1f%%, want > 30%%", red)
	}
}

func TestViaOrderingMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full strategy comparison is slow")
	}
	// Figure 12a's shape: default < strawmen < via <= oracle on PNR
	// reduction for the target metric.
	w, recs := testWorldTrace(t, 120000)
	m := quality.RTT
	r := NewRunner(w, DefaultConfig(3))
	results := r.run([]core.Strategy{
		core.DefaultStrategy{},
		core.NewOracle(w, m),
		core.NewPredictOnly(m, w),
		core.NewExploreOnly(m, 0.1, 5),
		core.NewVia(core.DefaultViaConfig(m), w),
	}, recs)
	base := results[0].PNR.AtLeastOneBadRate()
	red := func(i int) float64 {
		return quality.RelativeImprovement(base, results[i].PNR.AtLeastOneBadRate())
	}
	oracle, predict, explore, via := red(1), red(2), red(3), red(4)
	if !(via > predict && via > explore) {
		t.Errorf("via (%.1f%%) must beat strawmen (predict %.1f%%, explore %.1f%%)", via, predict, explore)
	}
	if via < 0.6*oracle {
		t.Errorf("via (%.1f%%) should be close to oracle (%.1f%%)", via, oracle)
	}
	if oracle < 30 {
		t.Errorf("oracle reduction %.1f%% below the paper's >30%%", oracle)
	}
	// §5.2: Via sends most calls through relays, split across bounce and
	// transit, with a small direct remainder.
	_, bounce, transit := results[4].OptionShare()
	if bounce == 0 || transit == 0 {
		t.Error("via should use both bounce and transit relays")
	}
}

func TestBestOptionPersistence(t *testing.T) {
	w, recs := testWorldTrace(t, 60000)
	r := NewRunner(w, DefaultConfig(3))
	r.Prepare(recs)
	per := BestOptionPersistence(w, recs, r, quality.RTT)
	if len(per) == 0 {
		t.Fatal("no persistence data")
	}
	for _, v := range per {
		if v < 1 || math.IsNaN(v) {
			t.Fatalf("bad persistence value %v", v)
		}
	}
	// Fig. 9's point: the best option changes within days for a sizable
	// fraction of pairs — so not all medians can be huge.
	short := 0
	for _, v := range per {
		if v <= 2 {
			short++
		}
	}
	if short == 0 {
		t.Error("no pair has short-lived best options; dynamics missing")
	}
}

func TestEligibleWindowsSorted(t *testing.T) {
	w, recs := testWorldTrace(t, 40000)
	r := NewRunner(w, DefaultConfig(3))
	r.Prepare(recs)
	pairs := r.EligiblePairs()
	if len(pairs) == 0 {
		t.Skip("no eligible pairs at this scale")
	}
	ws := r.eligibleWindows(pairs[0])
	for i := 1; i < len(ws); i++ {
		if ws[i] <= ws[i-1] {
			t.Fatal("windows not strictly ascending")
		}
	}
}

func TestRelayUsageAndExclusion(t *testing.T) {
	w, recs := testWorldTrace(t, 30000)
	cfg := DefaultConfig(3)
	cfg.SeedFraction = 0.2 // plenty of relayed calls even for default strategy
	r := NewRunner(w, cfg)
	res := r.RunOne(core.DefaultStrategy{}, recs)
	if len(res.RelayUsage) == 0 {
		t.Fatal("no relay usage recorded")
	}
	var used int64
	for _, n := range res.RelayUsage {
		used += n
	}
	if used < res.Bounce+res.Transit {
		t.Errorf("usage %d below relayed calls %d", used, res.Bounce+res.Transit)
	}

	// Exclude every relay that was used: no relayed eligible calls remain.
	cfg.ExcludeRelays = map[netsim.RelayID]bool{}
	for i := 0; i < w.NumRelays(); i++ {
		cfg.ExcludeRelays[netsim.RelayID(i)] = true
	}
	r2 := NewRunner(w, cfg)
	res2 := r2.RunOne(core.DefaultStrategy{}, recs)
	if res2.Bounce+res2.Transit != 0 {
		t.Errorf("excluded relays still used: %d", res2.Bounce+res2.Transit)
	}
}

func TestActiveProbesImproveVia(t *testing.T) {
	if testing.Short() {
		t.Skip("active-probe comparison is slow")
	}
	w, recs := testWorldTrace(t, 60000)
	m := quality.RTT

	run := func(probes int) *Result {
		cfg := DefaultConfig(3)
		cfg.ActiveProbesPerWindow = probes
		r := NewRunner(w, cfg)
		r.Prepare(recs)
		return r.RunOne(core.NewVia(core.DefaultViaConfig(m), w), recs)
	}
	without := run(0)
	with := run(400)
	if without.Probes != 0 {
		t.Errorf("probes placed with budget 0: %d", without.Probes)
	}
	if with.Probes == 0 {
		t.Fatal("no probes placed despite budget")
	}
	// Probes fill coverage holes; they must not hurt, and typically help.
	if with.PNR.Rate(m) > without.PNR.Rate(m)*1.08 {
		t.Errorf("probes degraded PNR: %.4f -> %.4f", without.PNR.Rate(m), with.PNR.Rate(m))
	}
	t.Logf("PNR(%s): without probes %.4f, with probes %.4f (%d probes)",
		m, without.PNR.Rate(m), with.PNR.Rate(m), with.Probes)
}

// eligibleWindows returns the eligible windows for one pair, ascending.
func (r *Runner) eligibleWindows(pk history.PairKey) []int {
	ws := r.pairWindows[pk]
	out := make([]int, len(ws))
	copy(out, ws)
	return out
}
