package via_test

import (
	"testing"

	"repro/via"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	// The README quickstart, as a test: build a world, generate a trace,
	// run Via against the default strategy, and confirm an improvement.
	w := via.NewWorld(1)
	recs := via.GenerateTrace(w, 2, 30000)
	simr := via.NewSimulator(w, via.DefaultSimulatorConfig(3))
	simr.Prepare(recs)

	def := simr.RunOne(via.NewDefault(), recs)
	sel := via.NewSelector(via.DefaultSelectorConfig(via.RTT), w)
	got := simr.RunOne(sel, recs)

	if def.Eligible == 0 || got.Eligible != def.Eligible {
		t.Fatalf("eligible mismatch: %d vs %d", def.Eligible, got.Eligible)
	}
	red := via.Reduction(def.PNR.AtLeastOneBadRate(), got.PNR.AtLeastOneBadRate())
	if red <= 0 {
		t.Errorf("via did not improve PNR (reduction %.1f%%)", red)
	}
}

func TestOptionConstructors(t *testing.T) {
	if via.DirectOption().IsRelayed() {
		t.Error("direct is relayed")
	}
	if !via.BounceOption(3).IsRelayed() || !via.TransitOption(1, 2).IsRelayed() {
		t.Error("relay options not relayed")
	}
}

func TestThresholdConstants(t *testing.T) {
	if via.PoorRTTMs != 320 || via.PoorLossRate != 0.012 || via.PoorJitterMs != 12 {
		t.Error("thresholds drifted from the paper")
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := via.Metrics{RTTMs: 400, LossRate: 0.001, JitterMs: 1}
	if !m.PoorOn(via.RTT) || m.PoorOn(via.Loss) {
		t.Error("PoorOn broken through the facade")
	}
	if got := via.Quantile([]float64{1, 2, 3}, 0.5); got != 2 {
		t.Errorf("Quantile = %v", got)
	}
	if got := via.Reduction(0.2, 0.1); got != 50 {
		t.Errorf("Reduction = %v", got)
	}
}

func TestBaselineConstructors(t *testing.T) {
	w := via.NewWorld(1)
	for _, s := range []via.Strategy{
		via.NewDefault(),
		via.NewOracle(w, via.Loss),
		via.NewBudgetedOracle(w, via.Loss, 0.3),
		via.NewPredictOnly(via.Jitter, w),
		via.NewExploreOnly(via.RTT, 0.1, 4),
	} {
		if s.Name() == "" {
			t.Error("strategy without a name")
		}
		opt := s.Choose(via.Call{Src: 0, Dst: 10, THours: 1}, []via.Option{via.DirectOption()})
		if opt != via.DirectOption() {
			t.Errorf("%s chose %v from a direct-only candidate set", s.Name(), opt)
		}
	}
}

func TestExperimentRegistryThroughFacade(t *testing.T) {
	names := via.Experiments()
	if len(names) < 15 {
		t.Fatalf("only %d experiments", len(names))
	}
	env := via.NewExperimentEnv(1, 20000)
	tables, err := via.RunExperiment(env, "table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || tables[0].String() == "" {
		t.Error("empty experiment output")
	}
	if _, err := via.RunExperiment(env, "not-an-experiment"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
