package quality

import (
	"math"
	"testing"
	"testing/quick"
)

func TestThresholds(t *testing.T) {
	if Threshold(RTT) != 320 || Threshold(Loss) != 0.012 || Threshold(Jitter) != 12 {
		t.Error("thresholds do not match the paper (§2.2)")
	}
}

func TestMetricString(t *testing.T) {
	if RTT.String() != "rtt" || Loss.String() != "loss" || Jitter.String() != "jitter" {
		t.Error("metric names wrong")
	}
	if Metric(99).String() != "metric(99)" {
		t.Error("unknown metric string")
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	var q Metrics
	for i, m := range AllMetrics() {
		v := float64(i+1) * 1.5
		q.set(m, v)
		if q.Get(m) != v {
			t.Errorf("%v: get/set mismatch", m)
		}
	}
}

func TestGetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Get(unknown) should panic")
		}
	}()
	Metrics{}.Get(NumMetrics)
}

func TestPoorOn(t *testing.T) {
	cases := []struct {
		q    Metrics
		m    Metric
		want bool
	}{
		{Metrics{RTTMs: 319.9}, RTT, false},
		{Metrics{RTTMs: 320}, RTT, true}, // threshold is inclusive
		{Metrics{LossRate: 0.0119}, Loss, false},
		{Metrics{LossRate: 0.012}, Loss, true},
		{Metrics{JitterMs: 11.9}, Jitter, false},
		{Metrics{JitterMs: 12}, Jitter, true},
	}
	for _, c := range cases {
		if got := c.q.PoorOn(c.m); got != c.want {
			t.Errorf("PoorOn(%+v, %v) = %v", c.q, c.m, got)
		}
	}
}

func TestAtLeastOneBad(t *testing.T) {
	if (Metrics{RTTMs: 100, LossRate: 0.001, JitterMs: 3}).AtLeastOneBad() {
		t.Error("good call flagged bad")
	}
	if !(Metrics{RTTMs: 100, LossRate: 0.02, JitterMs: 3}).AtLeastOneBad() {
		t.Error("lossy call not flagged")
	}
}

func TestValid(t *testing.T) {
	good := Metrics{RTTMs: 100, LossRate: 0.01, JitterMs: 5}
	if !good.Valid() {
		t.Error("valid metrics rejected")
	}
	bad := []Metrics{
		{RTTMs: -1},
		{LossRate: 1.5},
		{JitterMs: math.NaN()},
		{RTTMs: math.Inf(1)},
	}
	for _, q := range bad {
		if q.Valid() {
			t.Errorf("invalid metrics accepted: %+v", q)
		}
	}
}

func TestPNRAccounting(t *testing.T) {
	var p PNR
	p.Add(Metrics{RTTMs: 400, LossRate: 0.001, JitterMs: 1}) // poor rtt only
	p.Add(Metrics{RTTMs: 100, LossRate: 0.05, JitterMs: 20}) // poor loss+jitter
	p.Add(Metrics{RTTMs: 100, LossRate: 0.001, JitterMs: 1}) // good
	p.Add(Metrics{RTTMs: 100, LossRate: 0.001, JitterMs: 1}) // good
	if p.Total != 4 {
		t.Fatalf("total = %d", p.Total)
	}
	if got := p.Rate(RTT); got != 0.25 {
		t.Errorf("PNR(rtt) = %v", got)
	}
	if got := p.Rate(Loss); got != 0.25 {
		t.Errorf("PNR(loss) = %v", got)
	}
	if got := p.Rate(Jitter); got != 0.25 {
		t.Errorf("PNR(jitter) = %v", got)
	}
	if got := p.AtLeastOneBadRate(); got != 0.5 {
		t.Errorf("at-least-one-bad = %v", got)
	}
}

func TestPNRMerge(t *testing.T) {
	var a, b PNR
	a.Add(Metrics{RTTMs: 400})
	b.Add(Metrics{LossRate: 0.02})
	b.Add(Metrics{})
	a.Merge(b)
	if a.Total != 3 || a.Poor[RTT] != 1 || a.Poor[Loss] != 1 || a.AnyuB != 2 {
		t.Errorf("merged = %+v", a)
	}
}

func TestPNREmpty(t *testing.T) {
	var p PNR
	if p.Rate(RTT) != 0 || p.AtLeastOneBadRate() != 0 {
		t.Error("empty PNR should report 0")
	}
}

func TestRelativeImprovement(t *testing.T) {
	if got := RelativeImprovement(0.2, 0.1); !almostEq(got, 50, 1e-9) {
		t.Errorf("improvement = %v, want 50", got)
	}
	if got := RelativeImprovement(0.2, 0.2); got != 0 {
		t.Errorf("no change = %v", got)
	}
	if got := RelativeImprovement(0, 0.1); got != 0 {
		t.Errorf("zero baseline = %v", got)
	}
	if got := RelativeImprovement(0.1, 0.2); got >= 0 {
		t.Errorf("worsening should be negative: %v", got)
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEModelPerfectNetwork(t *testing.T) {
	c := DefaultEModel()
	mos := c.MOS(Metrics{RTTMs: 20, LossRate: 0, JitterMs: 0})
	if mos < 3.8 {
		t.Errorf("perfect network MOS = %v, want near-toll quality", mos)
	}
}

func TestEModelDegradesWithEachMetric(t *testing.T) {
	c := DefaultEModel()
	base := Metrics{RTTMs: 100, LossRate: 0.002, JitterMs: 3}
	m0 := c.MOS(base)
	worse := []Metrics{
		{RTTMs: 500, LossRate: 0.002, JitterMs: 3},
		{RTTMs: 100, LossRate: 0.05, JitterMs: 3},
		{RTTMs: 100, LossRate: 0.002, JitterMs: 40},
	}
	for _, q := range worse {
		if got := c.MOS(q); got >= m0 {
			t.Errorf("MOS(%+v) = %v, not below baseline %v", q, got, m0)
		}
	}
}

func TestEModelMonotoneInRTT(t *testing.T) {
	c := DefaultEModel()
	prev := math.Inf(1)
	for rtt := 0.0; rtt <= 1000; rtt += 25 {
		mos := c.MOS(Metrics{RTTMs: rtt, LossRate: 0.005, JitterMs: 5})
		if mos > prev+1e-9 {
			t.Fatalf("MOS not monotone in RTT at %v ms", rtt)
		}
		prev = mos
	}
}

func TestEModelCodecDifference(t *testing.T) {
	q := Metrics{RTTMs: 150, LossRate: 0.02, JitterMs: 5}
	g711 := EModelConfig{Codec: G711, CodecDelayMs: 25, JitterBufferMs: 60}
	g729 := EModelConfig{Codec: G729a, CodecDelayMs: 25, JitterBufferMs: 60}
	// G.711 has no intrinsic impairment at zero loss; G.729a starts at 11.
	clean := Metrics{RTTMs: 50}
	if g711.MOS(clean) <= g729.MOS(clean) {
		t.Error("G.711 should beat G.729a on a clean network")
	}
	_ = q
}

func TestRToMOSBounds(t *testing.T) {
	if RToMOS(-10) != 1 {
		t.Error("R<=0 should give MOS 1")
	}
	if RToMOS(120) != 4.5 {
		t.Error("R>=100 should give MOS 4.5")
	}
	if m := RToMOS(93.2); m < 4.3 || m > 4.5 {
		t.Errorf("R=93.2 gives MOS %v, want ~4.4", m)
	}
	// Monotonicity across the valid range.
	prev := 0.0
	for r := 0.0; r <= 100; r += 2 {
		m := RToMOS(r)
		if m < prev {
			t.Fatalf("RToMOS not monotone at R=%v", r)
		}
		prev = m
	}
}

func TestRatingModelMonotone(t *testing.T) {
	rm := DefaultRatingModel()
	for _, m := range AllMetrics() {
		base := Metrics{RTTMs: 80, LossRate: 0.002, JitterMs: 2}
		prev := -1.0
		for f := 0.0; f <= 3; f += 0.25 {
			q := base
			q.set(m, f*Threshold(m))
			p := rm.PoorProb(q)
			if p < prev {
				t.Fatalf("PoorProb not monotone in %v", m)
			}
			if p < 0 || p > 1 {
				t.Fatalf("PoorProb out of range: %v", p)
			}
			prev = p
		}
	}
}

func TestRatingModelSpread(t *testing.T) {
	rm := DefaultRatingModel()
	good := rm.PoorProb(Metrics{RTTMs: 50, LossRate: 0.001, JitterMs: 1})
	bad := rm.PoorProb(Metrics{RTTMs: 600, LossRate: 0.05, JitterMs: 30})
	if bad < 3*good {
		t.Errorf("poor-network PCR %v should be much larger than good-network %v", bad, good)
	}
	if good < rm.Base {
		t.Errorf("floor violated: %v < %v", good, rm.Base)
	}
}

func TestRateDistribution(t *testing.T) {
	rm := DefaultRatingModel()
	q := Metrics{RTTMs: 100, LossRate: 0.005, JitterMs: 4}
	var pcr PCR
	n := 20000
	for i := 0; i < n; i++ {
		u := float64(i) / float64(n)
		r := rm.Rate(q, u)
		if r < 1 || r > 5 {
			t.Fatalf("rating out of range: %d", r)
		}
		pcr.Add(r)
	}
	want := rm.PoorProb(q)
	if math.Abs(pcr.Rate()-want) > 0.02 {
		t.Errorf("empirical PCR %v vs model %v", pcr.Rate(), want)
	}
}

func TestPCRBasics(t *testing.T) {
	var p PCR
	if p.Rate() != 0 {
		t.Error("empty PCR should be 0")
	}
	for _, r := range []int{1, 2, 3, 4, 5} {
		p.Add(r)
	}
	if p.Rate() != 0.4 {
		t.Errorf("PCR = %v, want 0.4", p.Rate())
	}
}

// Property: MOS is always within [1, 4.5] for any valid metrics.
func TestMOSRangeProperty(t *testing.T) {
	c := DefaultEModel()
	f := func(r, l, j uint16) bool {
		q := Metrics{
			RTTMs:    float64(r % 2000),
			LossRate: float64(l%1000) / 1000,
			JitterMs: float64(j % 200),
		}
		m := c.MOS(q)
		return m >= 1 && m <= 4.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
