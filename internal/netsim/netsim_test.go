package netsim

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/quality"
	"repro/internal/stats"
)

func testWorld(t testing.TB) *World {
	t.Helper()
	return New(DefaultConfig(1))
}

func TestWorldConstructionDeterministic(t *testing.T) {
	a := New(DefaultConfig(42))
	b := New(DefaultConfig(42))
	if a.NumASes() != b.NumASes() || a.NumRelays() != b.NumRelays() {
		t.Fatal("sizes differ across identical construction")
	}
	for i := 0; i < a.NumASes(); i++ {
		if a.AS(ASID(i)) != b.AS(ASID(i)) {
			t.Fatalf("AS %d differs", i)
		}
	}
}

func TestWorldSeedChangesParameters(t *testing.T) {
	a := New(DefaultConfig(1))
	b := New(DefaultConfig(2))
	same := 0
	for i := 0; i < a.NumASes(); i++ {
		if a.AS(ASID(i)).accessRTTMs == b.AS(ASID(i)).accessRTTMs {
			same++
		}
	}
	if same > a.NumASes()/10 {
		t.Errorf("%d/%d ASes identical across seeds", same, a.NumASes())
	}
}

func TestWorldShape(t *testing.T) {
	w := testWorld(t)
	if w.NumASes() != 150 {
		t.Errorf("NumASes = %d, want 150", w.NumASes())
	}
	if w.NumRelays() != 24 {
		t.Errorf("NumRelays = %d, want 24", w.NumRelays())
	}
	// Every AS belongs to a known country and every country got at least
	// one AS.
	byCountry := map[string]int{}
	for i := 0; i < w.NumASes(); i++ {
		byCountry[w.CountryOf(ASID(i))]++
	}
	if len(byCountry) < 30 {
		t.Errorf("only %d countries represented", len(byCountry))
	}
	for c, n := range byCountry {
		if got := len(w.ASesInCountry(c)); got != n {
			t.Errorf("ASesInCountry(%s) = %d, want %d", c, got, n)
		}
	}
}

func TestInternational(t *testing.T) {
	w := testWorld(t)
	us := w.ASesInCountry("US")
	in := w.ASesInCountry("IN")
	if len(us) < 2 || len(in) < 1 {
		t.Fatal("expected multiple US ASes and at least one IN AS")
	}
	if w.International(us[0], us[1]) {
		t.Error("two US ASes flagged international")
	}
	if !w.International(us[0], in[0]) {
		t.Error("US-IN not flagged international")
	}
}

func TestNearestRelaysOrdered(t *testing.T) {
	w := testWorld(t)
	for _, a := range []ASID{0, 10, ASID(w.NumASes() - 1)} {
		rs := w.NearestRelays(a, 5)
		if len(rs) != 5 {
			t.Fatalf("got %d relays", len(rs))
		}
		prev := -1.0
		for _, r := range rs {
			d := distKm(w, a, r)
			if d < prev {
				t.Error("NearestRelays not sorted by distance")
			}
			prev = d
		}
	}
}

func distKm(w *World, a ASID, r RelayID) float64 {
	return geo.DistanceKm(w.AS(a).Loc, w.relays[r].Loc)
}

func TestOptionsStructure(t *testing.T) {
	w := testWorld(t)
	opts := w.Options(0, ASID(w.NumASes()-1))
	if len(opts) < 8 || len(opts) > 30 {
		t.Fatalf("got %d options, want the paper's 9-20 regime (±)", len(opts))
	}
	if opts[0] != DirectOption() {
		t.Error("direct option missing or not first")
	}
	seen := map[Option]bool{}
	var bounces, transits int
	for _, o := range opts {
		if seen[o] {
			t.Errorf("duplicate option %v", o)
		}
		seen[o] = true
		switch o.Kind {
		case Bounce:
			bounces++
			if o.R2 != -1 {
				t.Errorf("bounce with R2 set: %v", o)
			}
		case Transit:
			transits++
			if o.R1 == o.R2 {
				t.Errorf("degenerate transit: %v", o)
			}
		}
	}
	if bounces < 3 {
		t.Errorf("only %d bounce options", bounces)
	}
	if transits < 4 {
		t.Errorf("only %d transit options", transits)
	}
}

func TestOptionsDeterministic(t *testing.T) {
	w := testWorld(t)
	a := w.Options(3, 77)
	b := w.Options(3, 77)
	if len(a) != len(b) {
		t.Fatal("option count varies")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("option order varies")
		}
	}
}

func TestOptionString(t *testing.T) {
	if DirectOption().String() != "direct" {
		t.Error("direct string")
	}
	if BounceOption(3).String() != "bounce(3)" {
		t.Error("bounce string")
	}
	if TransitOption(3, 7).String() != "transit(3->7)" {
		t.Error("transit string")
	}
	if TransitOption(4, 4) != BounceOption(4) {
		t.Error("degenerate transit should collapse to bounce")
	}
}

func TestWindowMeanDeterministicAndSymmetric(t *testing.T) {
	w := testWorld(t)
	src, dst := ASID(5), ASID(120)
	opt := TransitOption(2, 9)
	m1 := w.WindowMean(src, dst, opt, 3)
	m2 := w.WindowMean(src, dst, opt, 3)
	if m1 != m2 {
		t.Error("WindowMean not deterministic")
	}
	// Reverse direction with flipped transit must see the same path.
	rev := w.WindowMean(dst, src, TransitOption(9, 2), 3)
	if m1 != rev {
		t.Errorf("path not symmetric: %+v vs %+v", m1, rev)
	}
}

func TestWindowMeanValid(t *testing.T) {
	w := testWorld(t)
	for _, window := range []int{0, 1, 7, 30} {
		for _, opt := range w.Options(1, 140) {
			m := w.WindowMean(1, 140, opt, window)
			if !m.Valid() {
				t.Fatalf("invalid metrics %+v for %v window %d", m, opt, window)
			}
			if m.RTTMs <= 0 {
				t.Fatalf("nonpositive RTT for %v", opt)
			}
		}
	}
}

func TestWindowMeanVariesOverTime(t *testing.T) {
	w := testWorld(t)
	changed := 0
	const pairs = 40
	for i := 0; i < pairs; i++ {
		src := ASID(i)
		dst := ASID(w.NumASes() - 1 - i)
		a := w.WindowMean(src, dst, DirectOption(), 0)
		b := w.WindowMean(src, dst, DirectOption(), 21)
		if math.Abs(a.LossRate-b.LossRate) > 1e-12 {
			changed++
		}
	}
	if changed < pairs/2 {
		t.Errorf("only %d/%d pairs changed over 3 weeks; dynamics too static", changed, pairs)
	}
}

func TestBackboneIsClean(t *testing.T) {
	w := testWorld(t)
	var worstLoss, worstJit float64
	for i := 0; i < w.NumRelays(); i++ {
		for j := i + 1; j < w.NumRelays(); j++ {
			m := w.BackboneMetrics(RelayID(i), RelayID(j), 2)
			worstLoss = math.Max(worstLoss, m.LossRate)
			worstJit = math.Max(worstJit, m.JitterMs)
		}
	}
	if worstLoss > 0.005 {
		t.Errorf("backbone loss up to %v; should be near zero", worstLoss)
	}
	if worstJit > 5 {
		t.Errorf("backbone jitter up to %v ms; should be small", worstJit)
	}
	if m := w.BackboneMetrics(3, 3, 0); m != (quality.Metrics{}) {
		t.Error("self backbone should be zero")
	}
}

func TestTransitRTTBeatsDirectOnBadIntlPaths(t *testing.T) {
	// Structural sanity: across many international pairs, relaying must
	// beat the direct path a substantial fraction of the time — this is the
	// premise of the whole paper (§3.2: oracle improves ~half of poor
	// calls). We check on ground-truth window means.
	w := testWorld(t)
	relayWins := 0
	total := 0
	for i := 0; i < 60; i++ {
		src := ASID(i)
		dst := ASID(w.NumASes() - 1 - i)
		if !w.International(src, dst) {
			continue
		}
		opts := w.Options(src, dst)
		best, bestV := w.BestOption(src, dst, opts, 1, quality.RTT)
		direct := w.WindowMean(src, dst, DirectOption(), 1).RTTMs
		total++
		if best.IsRelayed() && bestV < direct {
			relayWins++
		}
	}
	if total == 0 {
		t.Fatal("no international pairs sampled")
	}
	if frac := float64(relayWins) / float64(total); frac < 0.3 {
		t.Errorf("relaying wins on RTT for only %.0f%% of intl pairs", frac*100)
	}
}

func TestSampleCallNoiseAroundMean(t *testing.T) {
	w := testWorld(t)
	rng := stats.NewRNG(9)
	src, dst := ASID(2), ASID(130)
	opt := DirectOption()
	mean := w.WindowMean(src, dst, opt, 0)
	var rtt stats.Welford
	for i := 0; i < 3000; i++ {
		m := w.SampleCall(src, dst, opt, 5.0, rng)
		if !m.Valid() {
			t.Fatalf("invalid sample %+v", m)
		}
		rtt.Add(m.RTTMs)
	}
	// Sampled mean should be near the ground-truth mean (within ~15%: the
	// occasional Pareto spike and diurnal factor shift it slightly).
	if math.Abs(rtt.Mean-mean.RTTMs) > 0.15*mean.RTTMs {
		t.Errorf("sampled RTT mean %v vs ground truth %v", rtt.Mean, mean.RTTMs)
	}
}

func TestSampleCallDiffersAcrossCalls(t *testing.T) {
	w := testWorld(t)
	rng := stats.NewRNG(10)
	a := w.SampleCall(1, 100, DirectOption(), 2.0, rng)
	b := w.SampleCall(1, 100, DirectOption(), 2.0, rng)
	if a == b {
		t.Error("two calls drew identical metrics; noise missing")
	}
}

func TestWindowOf(t *testing.T) {
	cases := []struct {
		h    float64
		want int
	}{{0, 0}, {23.9, 0}, {24, 1}, {47.9, 1}, {48, 2}, {240, 10}}
	for _, c := range cases {
		if got := WindowOf(c.h); got != c.want {
			t.Errorf("WindowOf(%v) = %d, want %d", c.h, got, c.want)
		}
	}
}

func TestBestOptionPicksMinimum(t *testing.T) {
	w := testWorld(t)
	opts := w.Options(0, 149)
	best, bestV := w.BestOption(0, 149, opts, 4, quality.Loss)
	for _, o := range opts {
		if v := w.WindowMean(0, 149, o, 4).LossRate; v < bestV {
			t.Errorf("BestOption missed %v (%v < %v)", o, v, bestV)
		}
	}
	_ = best
}

func TestChronicAndIntermittentSegmentsExist(t *testing.T) {
	// Fig. 6 needs a mix: some AS pairs bad most days, many bad rarely.
	w := testWorld(t)
	chronic, intermittent := 0, 0
	for i := 0; i < 120; i += 2 {
		src, dst := ASID(i), ASID(i+1)
		badDays := 0
		const days = 30
		for d := 0; d < days; d++ {
			if w.WindowMean(src, dst, DirectOption(), d).AtLeastOneBad() {
				badDays++
			}
		}
		switch {
		case badDays >= days*3/4:
			chronic++
		case badDays > 0 && badDays <= days/3:
			intermittent++
		}
	}
	if chronic == 0 {
		t.Error("no chronically bad pairs; Fig. 6 skew will not reproduce")
	}
	if intermittent == 0 {
		t.Error("no intermittently bad pairs; Fig. 6 skew will not reproduce")
	}
}

func BenchmarkWindowMeanCold(b *testing.B) {
	w := New(DefaultConfig(3))
	opts := w.Options(0, 149)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := opts[i%len(opts)]
		_ = w.WindowMean(0, 149, o, i) // new window each time: cache miss
	}
}

func BenchmarkWindowMeanHot(b *testing.B) {
	w := New(DefaultConfig(3))
	opt := DirectOption()
	w.WindowMean(0, 149, opt, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.WindowMean(0, 149, opt, 0)
	}
}

func BenchmarkSampleCall(b *testing.B) {
	w := New(DefaultConfig(3))
	rng := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.SampleCall(0, 149, DirectOption(), 12.0, rng)
	}
}

// Property: path composition is conservative — a relayed path's RTT equals
// the sum of its segment RTTs, its loss never exceeds the sum of segment
// losses, and all metrics stay valid.
func TestComposePathProperties(t *testing.T) {
	w := testWorld(t)
	rng := stats.NewRNG(99)
	for trial := 0; trial < 300; trial++ {
		src := ASID(rng.IntN(w.NumASes()))
		dst := ASID(rng.IntN(w.NumASes()))
		r1 := RelayID(rng.IntN(w.NumRelays()))
		r2 := RelayID(rng.IntN(w.NumRelays()))
		window := rng.IntN(30)
		if r1 == r2 {
			continue
		}
		transit := w.WindowMean(src, dst, TransitOption(r1, r2), window)
		if !transit.Valid() {
			t.Fatalf("invalid transit metrics %+v", transit)
		}
		accS := w.AccessMetrics(src, r1, window)
		accD := w.AccessMetrics(dst, r2, window)
		bb := w.BackboneMetrics(r1, r2, window)
		sumRTT := accS.RTTMs + bb.RTTMs + accD.RTTMs
		if math.Abs(transit.RTTMs-sumRTT) > 1e-6 {
			t.Fatalf("transit RTT %v != segment sum %v", transit.RTTMs, sumRTT)
		}
		lossSum := accS.LossRate + bb.LossRate + accD.LossRate
		if transit.LossRate > lossSum+1e-9 {
			t.Fatalf("composed loss %v exceeds union bound %v", transit.LossRate, lossSum)
		}
		jitSum := accS.JitterMs + bb.JitterMs + accD.JitterMs
		if math.Abs(transit.JitterMs-jitSum) > 1e-6 {
			t.Fatalf("composed jitter %v != segment sum %v", transit.JitterMs, jitSum)
		}
	}
}

// Property: window means are cached consistently — interleaved queries from
// multiple goroutines return identical values.
func TestWindowMeanConcurrentConsistency(t *testing.T) {
	w := testWorld(t)
	opt := TransitOption(1, 5)
	want := w.WindowMean(3, 99, opt, 7)
	done := make(chan quality.Metrics, 16)
	for g := 0; g < 16; g++ {
		go func() { done <- w.WindowMean(3, 99, opt, 7) }()
	}
	for g := 0; g < 16; g++ {
		if got := <-done; got != want {
			t.Fatalf("concurrent WindowMean mismatch: %+v vs %+v", got, want)
		}
	}
}
