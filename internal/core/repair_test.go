package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/stats"
)

func TestRepairOverhead(t *testing.T) {
	cases := []struct {
		scheme string
		want   float64
	}{
		{"", 0}, {"none", 0}, {"nack", 0.05}, {"red", 1},
		{"fec-2", 0.5}, {"fec-4", 0.25}, {"fec-10", 0.1},
		{"garbage", 1}, {"fec-x", 1}, {"fec-1", 1},
	}
	for _, c := range cases {
		if got := RepairOverhead(c.scheme); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RepairOverhead(%q) = %v, want %v", c.scheme, got, c.want)
		}
	}
}

func TestRepairBanditConvergesToCheapestCost(t *testing.T) {
	rng := stats.NewRNG(7).Split("test")
	b := NewRepairBandit(0.05, 0.02, 1)
	schemes := []string{"none", "nack", "fec-4"}
	// nack has the lowest cost; the bandit must concentrate on it.
	cost := map[string]float64{"none": 1.2, "nack": 0.3, "fec-4": 0.6}
	for i := 0; i < 400; i++ {
		s := b.Choose(schemes, 60, rng)
		b.Observe(s, cost[s])
	}
	if got := b.MostChosen(); got != "nack" {
		t.Fatalf("most chosen = %q (counts %v), want nack", got, b.Counts())
	}
	if n := b.Counts()["nack"]; n < 250 {
		t.Errorf("nack chosen %v/400 times, want dominant", n)
	}
}

func TestRepairBanditBudgetMasksExpensiveSchemes(t *testing.T) {
	rng := stats.NewRNG(9).Split("test")
	// 10% redundancy budget: red (100%) and fec-2 (50%) must be masked
	// almost immediately; none and nack always stay eligible.
	b := NewRepairBandit(0.5, 0.02, 0.10)
	schemes := []string{"none", "nack", "red", "fec-2"}
	// Make the expensive schemes look best so only the budget stops them.
	cost := map[string]float64{"none": 2, "nack": 2, "red": 0.1, "fec-2": 0.1}
	for i := 0; i < 300; i++ {
		s := b.Choose(schemes, 60, rng)
		b.Observe(s, cost[s])
	}
	counts := b.Counts()
	// The budget is a rate: cheap calls bank headroom that occasionally
	// affords an expensive scheme. What must hold is the ledger itself —
	// the realized overhead fraction stays at the cap — and that cheap
	// schemes carry the bulk of the traffic despite looking worse.
	if got := b.OverheadFraction(); got > 0.11 {
		t.Errorf("overhead fraction %.3f blew the 0.10 budget (counts %v)", got, counts)
	}
	expensive := counts["red"] + counts["fec-2"]
	if expensive > 100 {
		t.Errorf("expensive schemes chosen %v/300 times under a 10%% budget (counts %v)", expensive, counts)
	}
	if counts["nack"]+counts["none"] < 200 {
		t.Errorf("cheap schemes starved: %v", counts)
	}
}

func TestRepairBanditUnbudgetedAllowsRED(t *testing.T) {
	rng := stats.NewRNG(11).Split("test")
	b := NewRepairBandit(0.1, 0.02, 1)
	schemes := []string{"none", "red"}
	for i := 0; i < 100; i++ {
		s := b.Choose(schemes, 60, rng)
		c := 1.0
		if s == "red" {
			c = 0.2
		}
		b.Observe(s, c)
	}
	if got := b.MostChosen(); got != "red" {
		t.Errorf("most chosen = %q, want red when unbudgeted and cheapest", got)
	}
}

func repairTestVia(schemes []string) *Via {
	cfg := DefaultViaConfig(quality.Loss)
	cfg.Seed = 42
	cfg.RepairSchemes = schemes
	return NewVia(cfg, nil)
}

func TestViaChooseRepairLearnsPerPair(t *testing.T) {
	v := repairTestVia([]string{"none", "nack", "fec-4"})
	call := Call{Src: 1, Dst: 2, DurationSec: 120}
	opt := netsim.DirectOption()

	// Pair (1,2): nack repairs perfectly, everything else is poor.
	for i := 0; i < 300; i++ {
		s := v.ChooseRepair(call, opt, []string{"none", "nack", "fec-4"})
		m := quality.Metrics{RTTMs: 60, LossRate: 0.08, JitterMs: 4}
		if s == "nack" {
			m.LossRate = 0.001
		}
		v.ObserveRepair(call, opt, s, m)
	}
	b := pairBandit(v, call)
	if b == nil {
		t.Fatal("no bandit for pair")
	}
	if got := b.MostChosen(); got != "nack" {
		t.Errorf("pair (1,2) most chosen = %q (counts %v), want nack", got, b.Counts())
	}

	// A different pair starts from scratch.
	other := Call{Src: 3, Dst: 4}
	if b2 := pairBandit(v, other); b2 != nil {
		t.Error("unvisited pair has a bandit")
	}
}

func TestViaChooseRepairFiltersToConfiguredSchemes(t *testing.T) {
	v := repairTestVia([]string{"none", "nack"})
	call := Call{Src: 1, Dst: 2}
	for i := 0; i < 50; i++ {
		s := v.ChooseRepair(call, netsim.DirectOption(), []string{"red", "fec-4", "nack"})
		if s != "nack" && s != "none" {
			t.Fatalf("chose unconfigured scheme %q", s)
		}
	}
	// No overlap at all degrades to none.
	if s := v.ChooseRepair(call, netsim.DirectOption(), []string{"red"}); s != "none" {
		t.Errorf("disjoint offer chose %q, want none", s)
	}
	// Empty offer means the caller does not support repair.
	if s := v.ChooseRepair(call, netsim.DirectOption(), nil); s != "" {
		t.Errorf("empty offer chose %q, want empty", s)
	}
}

func TestViaRepairDoesNotPerturbPathSelection(t *testing.T) {
	// The same seed with and without repair traffic must produce the same
	// path decision sequence: repair draws come from a separate RNG split.
	run := func(withRepair bool) []netsim.Option {
		cfg := DefaultViaConfig(quality.Loss)
		cfg.Seed = 99
		cfg.RepairSchemes = []string{"none", "nack", "red"}
		v := NewVia(cfg, nil)
		cands := []netsim.Option{
			netsim.DirectOption(),
			{Kind: netsim.Bounce, R1: 1},
			{Kind: netsim.Bounce, R1: 2},
		}
		var picks []netsim.Option
		for i := 0; i < 120; i++ {
			c := Call{Src: 1, Dst: 2, THours: float64(i) / 10}
			opt := v.Choose(c, cands)
			picks = append(picks, opt)
			if withRepair {
				s := v.ChooseRepair(c, opt, cfg.RepairSchemes)
				v.ObserveRepair(c, opt, s, quality.Metrics{RTTMs: 50, LossRate: 0.02, JitterMs: 3})
			}
			v.Observe(c, opt, quality.Metrics{RTTMs: 50, LossRate: 0.02, JitterMs: 3})
		}
		return picks
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("path pick %d diverged with repair enabled: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestViaStateRoundTripWithRepair(t *testing.T) {
	cfg := DefaultViaConfig(quality.Loss)
	cfg.Seed = 5
	cfg.RepairSchemes = []string{"none", "nack", "fec-4"}
	v := NewVia(cfg, nil)
	cands := []netsim.Option{netsim.DirectOption(), {Kind: netsim.Bounce, R1: 1}}
	for i := 0; i < 80; i++ {
		c := Call{Src: 1, Dst: 2, THours: float64(i) / 20, DurationSec: 90}
		opt := v.Choose(c, cands)
		s := v.ChooseRepair(c, opt, cfg.RepairSchemes)
		m := quality.Metrics{RTTMs: 70, LossRate: 0.03, JitterMs: 5}
		v.Observe(c, opt, m)
		v.ObserveRepair(c, opt, s, m)
	}

	var snap bytes.Buffer
	if err := v.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	restored := NewVia(cfg, nil)
	if err := restored.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Both must produce identical decision streams from here on.
	for i := 80; i < 140; i++ {
		c := Call{Src: 1, Dst: 2, THours: float64(i) / 20, DurationSec: 90}
		o1, o2 := v.Choose(c, cands), restored.Choose(c, cands)
		if o1 != o2 {
			t.Fatalf("call %d: path %v vs %v", i, o1, o2)
		}
		s1 := v.ChooseRepair(c, o1, cfg.RepairSchemes)
		s2 := restored.ChooseRepair(c, o2, cfg.RepairSchemes)
		if s1 != s2 {
			t.Fatalf("call %d: scheme %q vs %q", i, s1, s2)
		}
		m := quality.Metrics{RTTMs: 70, LossRate: 0.03, JitterMs: 5}
		v.Observe(c, o1, m)
		restored.Observe(c, o2, m)
		v.ObserveRepair(c, o1, s1, m)
		restored.ObserveRepair(c, o2, s2, m)
	}

	// And the two snapshots must be byte-identical.
	var s1, s2 bytes.Buffer
	if err := v.SaveState(&s1); err != nil {
		t.Fatal(err)
	}
	if err := restored.SaveState(&s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Error("post-divergence snapshots differ")
	}
}

func TestViaLoadStateToleratesPreRepairSnapshot(t *testing.T) {
	// A snapshot captured before any repair activity (zero repair arms;
	// repair RNG at its initial split position) must restore into a Via
	// that behaves exactly like a fresh one on the repair side.
	cfg := DefaultViaConfig(quality.Loss)
	cfg.Seed = 3
	v := NewVia(cfg, nil)
	cands := []netsim.Option{netsim.DirectOption(), {Kind: netsim.Bounce, R1: 1}}
	for i := 0; i < 40; i++ {
		c := Call{Src: 1, Dst: 2, THours: float64(i) / 20}
		v.Observe(c, v.Choose(c, cands), quality.Metrics{RTTMs: 50, LossRate: 0.01, JitterMs: 2})
	}
	var snap bytes.Buffer
	if err := v.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	restored := NewVia(cfg, nil)
	if err := restored.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	c := Call{Src: 1, Dst: 2}
	s1 := v.ChooseRepair(c, netsim.DirectOption(), []string{"none", "nack"})
	s2 := restored.ChooseRepair(c, netsim.DirectOption(), []string{"none", "nack"})
	if s1 != s2 {
		t.Errorf("repair choice diverged after restore: %q vs %q", s1, s2)
	}
}

func TestValidateRepairSchemesPanicsOnTypo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on malformed scheme name")
		}
	}()
	cfg := DefaultViaConfig(quality.Loss)
	cfg.RepairSchemes = []string{"none", "fce-4"}
	NewVia(cfg, nil)
}

// pairBandit reads the scheme bandit Via keeps for c's group pair (nil
// before the pair has chosen a scheme).
func pairBandit(v *Via, c Call) *RepairBandit {
	g1, g2 := v.cfg.Groups(c)
	if g1 > g2 {
		g1, g2 = g2, g1
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.repairPairs[groupPair{g1, g2}]
}
