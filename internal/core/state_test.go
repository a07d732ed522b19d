package core

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
	"repro/internal/quality"
)

// stateTestConfigs exercises the distinct code paths state capture must
// cover: unbudgeted (no benefit estimator), budget-aware (P2 + percentile
// gate), and duration-weighted with per-relay caps.
func stateTestConfigs() map[string]ViaConfig {
	base := DefaultViaConfig(quality.RTT)
	budgeted := base
	budgeted.Budget = 0.3
	perRelay := base
	perRelay.Budget = 0.5
	perRelay.BudgetByDuration = true
	perRelay.PerRelayBudget = 0.4
	return map[string]ViaConfig{"plain": base, "budgeted": budgeted, "per-relay": perRelay}
}

// TestViaStateRoundTripBitIdentical is the crash-recovery determinism
// proof at the strategy layer: run N calls, snapshot, keep running the
// original while a restored copy replays the same remaining request
// sequence — every subsequent decision must match bit-for-bit.
func TestViaStateRoundTripBitIdentical(t *testing.T) {
	for name, cfg := range stateTestConfigs() {
		t.Run(name, func(t *testing.T) {
			const total, cut = 3000, 1700 // cut mid-epoch AND past several refreshes
			env := newFakeEnv(11)
			v := NewVia(cfg, nil)

			calls := make([]Call, total)
			for i := range calls {
				calls[i] = Call{Src: netsim.ASID(3 + i%5), Dst: netsim.ASID(9 + i%7),
					UserSrc: int64(i), UserDst: int64(i + 1),
					THours: 96 * float64(i) / total, DurationSec: float64(60 + i%300)}
			}

			// Phase 1: drive to the cut point, observing as we go.
			samples := make([]quality.Metrics, 0, total)
			for i := 0; i < cut; i++ {
				opt := v.Choose(calls[i], env.options())
				m := env.sample(opt)
				samples = append(samples, m)
				v.Observe(calls[i], opt, m)
			}

			var snap bytes.Buffer
			if err := v.SaveState(&snap); err != nil {
				t.Fatal(err)
			}
			restored := NewVia(cfg, nil)
			if err := restored.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}

			// Phase 2: both instances see the identical remaining sequence.
			// The environment samples are generated once and fed to both, so
			// any divergence is the strategy's own.
			for i := cut; i < total; i++ {
				a := v.Choose(calls[i], env.options())
				b := restored.Choose(calls[i], env.options())
				if a != b {
					t.Fatalf("call %d: original chose %v, restored chose %v", i, a, b)
				}
				m := env.sample(a)
				v.Observe(calls[i], a, m)
				restored.Observe(calls[i], b, m)
			}
			if a, b := v.RelayedFraction(), restored.RelayedFraction(); a != b {
				t.Fatalf("relayed fraction diverged: %v vs %v", a, b)
			}
		})
	}
}

// TestViaStateSnapshotDeterministic: two captures of the same state are the
// same bytes, so snapshot content can be compared across replicas.
func TestViaStateSnapshotDeterministic(t *testing.T) {
	env := newFakeEnv(5)
	v := NewVia(DefaultViaConfig(quality.RTT), nil)
	drive(v, env, 800, 48)
	var a, b bytes.Buffer
	if err := v.SaveState(&a); err != nil {
		t.Fatal(err)
	}
	if err := v.SaveState(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two captures of identical state differ")
	}
}

// TestViaStateFreshInstance: round-tripping a never-used strategy works and
// keeps it usable.
func TestViaStateFreshInstance(t *testing.T) {
	v := NewVia(DefaultViaConfig(quality.RTT), nil)
	var buf bytes.Buffer
	if err := v.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	r := NewVia(DefaultViaConfig(quality.RTT), nil)
	if err := r.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	opt := r.Choose(Call{Src: 1, Dst: 2}, []netsim.Option{netsim.DirectOption()})
	if opt != netsim.DirectOption() {
		t.Fatalf("restored fresh instance chose %v", opt)
	}
}

// TestViaStateRejectsGarbage: corrupt input must error, not panic, and must
// not partially mutate the target.
func TestViaStateRejectsGarbage(t *testing.T) {
	v := NewVia(DefaultViaConfig(quality.RTT), nil)
	if err := v.LoadState(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Still usable after the failed load.
	opt := v.Choose(Call{Src: 1, Dst: 2}, []netsim.Option{netsim.DirectOption()})
	if opt != netsim.DirectOption() {
		t.Fatalf("strategy broken after failed load: %v", opt)
	}
}

// TestCaptureStateMatchesSaveState: the encoder CaptureState returns
// writes the bytes SaveState wrote at the moment of the capture, however
// the strategy moves on before the encoder runs — for a Via that has
// decided, observed and co-selected repair.
func TestCaptureStateMatchesSaveState(t *testing.T) {
	s := NewVia(DefaultViaConfig(quality.RTT), nil)
	env := newFakeEnv(7)
	for i := 0; i < 900; i++ {
		c := Call{Src: netsim.ASID(3 + i%5), Dst: netsim.ASID(9 + i%7), THours: 48 * float64(i) / 900, DurationSec: 60}
		opt := s.Choose(c, env.options())
		m := env.sample(opt)
		scheme := s.ChooseRepair(c, opt, []string{"none", "nack", "fec-4"})
		s.Observe(c, opt, m)
		s.ObserveRepair(c, opt, scheme, m)
	}
	t.Run("via", func(t *testing.T) {
		var want bytes.Buffer
		if err := s.SaveState(&want); err != nil {
			t.Fatal(err)
		}
		encode, err := s.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		env := newFakeEnv(8)
		for i := 0; i < 300; i++ { // new pairs, new windows, new arms
			c := Call{Src: netsim.ASID(20 + i%9), Dst: netsim.ASID(40 + i%4), THours: 48 + 30*float64(i)/300}
			opt := s.Choose(c, env.options())
			s.Observe(c, opt, env.sample(opt))
		}
		var got bytes.Buffer
		if err := encode(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatal("the captured encoder wrote different bytes from SaveState at capture time")
		}
		var moved bytes.Buffer
		if err := s.SaveState(&moved); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(moved.Bytes(), want.Bytes()) {
			t.Fatal("the strategy did not move on; the test proves nothing")
		}
	})
}
