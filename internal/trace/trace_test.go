package trace

import (
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/stats"
)

func testSetup(t testing.TB, calls int) (*netsim.World, []CallRecord) {
	t.Helper()
	w := netsim.New(netsim.DefaultConfig(1))
	g := NewGenerator(w, DefaultConfig(2, calls))
	return w, g.GenerateSlice()
}

func TestGenerateCountAndOrder(t *testing.T) {
	_, recs := testSetup(t, 20000)
	if len(recs) != 20000 {
		t.Fatalf("got %d records", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].THours < recs[i-1].THours {
			t.Fatal("trace not chronological")
		}
	}
	if recs[0].ID != 0 || recs[len(recs)-1].ID != int64(len(recs)-1) {
		t.Error("IDs not sequential")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w := netsim.New(netsim.DefaultConfig(1))
	a := NewGenerator(w, DefaultConfig(7, 5000)).GenerateSlice()
	b := NewGenerator(w, DefaultConfig(7, 5000)).GenerateSlice()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs across identical generations", i)
		}
	}
}

func TestCompositionMatchesPaper(t *testing.T) {
	w, recs := testSetup(t, 60000)
	s := Summarize(w, recs)
	// Table 1 composition: 46.6% international, 80.7% inter-AS. The Zipf
	// weighting over pairs adds sampling noise, so allow a band.
	if math.Abs(s.International-0.466) > 0.12 {
		t.Errorf("international fraction = %v, want ~0.466", s.International)
	}
	if math.Abs(s.InterAS-0.807) > 0.12 {
		t.Errorf("inter-AS fraction = %v, want ~0.807", s.InterAS)
	}
	if math.Abs(s.Rated-0.30) > 0.03 {
		t.Errorf("rated fraction = %v, want ~0.30", s.Rated)
	}
	if s.Countries < 25 {
		t.Errorf("only %d countries touched", s.Countries)
	}
	if s.Days < 25 || s.Days > 28.01 {
		t.Errorf("trace spans %v days, want ~28", s.Days)
	}
}

func TestPairVolumeIsSkewed(t *testing.T) {
	_, recs := testSetup(t, 50000)
	counts := map[Pair]int{}
	for _, c := range recs {
		counts[Pair{c.Src, c.Dst}]++
	}
	// Zipf volume: the busiest pair should carry far more than the median
	// pair — the data-density skew of §4.2.
	var max, nonzero int
	for _, n := range counts {
		if n > max {
			max = n
		}
		nonzero++
	}
	avg := float64(len(recs)) / float64(nonzero)
	if float64(max) < 20*avg {
		t.Errorf("max pair volume %d vs mean %.1f; not skewed enough", max, avg)
	}
}

func TestMetricsValidAndDirect(t *testing.T) {
	_, recs := testSetup(t, 5000)
	for _, c := range recs {
		if !c.Metrics.Valid() {
			t.Fatalf("invalid metrics: %+v", c)
		}
		if c.Option != netsim.DirectOption() {
			t.Fatalf("baseline trace must be direct-routed, got %v", c.Option)
		}
		if c.Duration <= 0 {
			t.Fatalf("nonpositive duration")
		}
	}
}

func TestRatingsOnlyOnRatedCalls(t *testing.T) {
	_, recs := testSetup(t, 20000)
	rated := 0
	for _, c := range recs {
		if c.Rating < 0 || c.Rating > 5 {
			t.Fatalf("rating out of range: %d", c.Rating)
		}
		if c.Rating > 0 {
			rated++
		}
	}
	if rated == 0 || rated == len(recs) {
		t.Errorf("rated count = %d of %d; RatedFrac not applied", rated, len(recs))
	}
}

func TestRatingsCorrelateWithMetrics(t *testing.T) {
	// The PCR of calls with a poor network must exceed the PCR of good
	// calls — the precondition for reproducing Figure 1.
	_, recs := testSetup(t, 120000)
	var poorTot, poorBad, goodTot, goodBad int
	for _, c := range recs {
		if c.Rating == 0 {
			continue
		}
		isPoorRating := c.Rating <= 2
		if c.Metrics.AtLeastOneBad() {
			poorTot++
			if isPoorRating {
				poorBad++
			}
		} else {
			goodTot++
			if isPoorRating {
				goodBad++
			}
		}
	}
	if poorTot < 100 || goodTot < 100 {
		t.Fatalf("insufficient rated calls: %d poor, %d good", poorTot, goodTot)
	}
	pcrPoor := float64(poorBad) / float64(poorTot)
	pcrGood := float64(goodBad) / float64(goodTot)
	if pcrPoor < 1.5*pcrGood {
		t.Errorf("PCR on poor networks (%v) not clearly above good networks (%v)", pcrPoor, pcrGood)
	}
}

func TestWindowHelper(t *testing.T) {
	c := CallRecord{THours: 49.5}
	if c.Window() != 2 {
		t.Errorf("Window() = %d", c.Window())
	}
}

func TestPairCanonical(t *testing.T) {
	p := Pair{5, 2}
	if p.canonical() != (Pair{2, 5}) {
		t.Error("canonical should order endpoints")
	}
	q := Pair{2, 5}
	if q.canonical() != q {
		t.Error("already-canonical pair changed")
	}
	if p.String() != "5-2" {
		t.Errorf("String = %q", p.String())
	}
}

func TestSamplePairDegenerateWorldFallsBack(t *testing.T) {
	// A tiny world with few countries must not loop forever.
	w := netsim.New(netsim.Config{Seed: 3, NumASes: 4, NumRelays: 4, BounceCandidates: 2, TransitFan: 2})
	g := NewGenerator(w, DefaultConfig(3, 100))
	recs := g.GenerateSlice()
	if len(recs) != 100 {
		t.Fatalf("got %d records", len(recs))
	}
}

func TestWeightedPickerDistribution(t *testing.T) {
	w := netsim.New(netsim.DefaultConfig(1))
	p := newWeightedPicker(w)
	r := stats.NewRNG(5)
	counts := map[netsim.ASID]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[p.pick(r)]++
	}
	// Empirical frequency should track weight for the heaviest AS.
	var totalW float64
	heaviest := netsim.ASID(0)
	for i := 0; i < w.NumASes(); i++ {
		totalW += w.AS(netsim.ASID(i)).Weight
		if w.AS(netsim.ASID(i)).Weight > w.AS(heaviest).Weight {
			heaviest = netsim.ASID(i)
		}
	}
	want := w.AS(heaviest).Weight / totalW
	got := float64(counts[heaviest]) / n
	if math.Abs(got-want) > 0.01+want*0.2 {
		t.Errorf("heaviest AS frequency %v vs weight share %v", got, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	w := netsim.New(netsim.DefaultConfig(1))
	s := Summarize(w, nil)
	if s.Calls != 0 || s.International != 0 {
		t.Error("empty summary should be zero")
	}
}

func BenchmarkGenerate(b *testing.B) {
	w := netsim.New(netsim.DefaultConfig(1))
	g := NewGenerator(w, DefaultConfig(2, b.N+1))
	b.ResetTimer()
	n := 0
	g.Generate(func(CallRecord) { n++ })
}
