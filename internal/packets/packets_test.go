package packets

import (
	"math"
	"testing"

	"repro/internal/quality"
	"repro/internal/rtp"
	"repro/internal/stats"
)

func rng() *stats.RNG { return stats.NewRNG(1) }

func TestSynthesizeShape(t *testing.T) {
	m := quality.Metrics{RTTMs: 200, LossRate: 0.02, JitterMs: 8}
	tr := Synthesize(m, DefaultTraceConfig(), rng())
	if tr.Packets() != 1500 {
		t.Fatalf("packets = %d, want 30s*50pps", tr.Packets())
	}
	if tr.IntervalMs != 20 {
		t.Errorf("interval = %v", tr.IntervalMs)
	}
	for i, d := range tr.OneWayDelayMs {
		if d <= 0 || math.IsNaN(d) {
			t.Fatalf("packet %d has bad delay %v", i, d)
		}
	}
}

func TestSynthesizeMatchesAverages(t *testing.T) {
	m := quality.Metrics{RTTMs: 240, LossRate: 0.03, JitterMs: 10}
	cfg := DefaultTraceConfig()
	cfg.DurationSec = 600 // long trace for tight averages
	cfg.SpikeProb = 0     // spikes bias the mean; exclude for this check
	tr := Synthesize(m, cfg, rng())

	// Mean one-way delay ≈ RTT/2.
	var w stats.Welford
	for i, d := range tr.OneWayDelayMs {
		if !tr.Lost[i] {
			w.Add(d)
		}
	}
	if math.Abs(w.Mean-120) > 8 {
		t.Errorf("mean delay = %v, want ~120", w.Mean)
	}
	// Loss rate ≈ configured.
	if got := tr.networkLossRate(); math.Abs(got-0.03) > 0.012 {
		t.Errorf("loss rate = %v, want ~0.03", got)
	}
}

func TestSynthesizedJitterMatchesRFC3550(t *testing.T) {
	// Feeding the synthesized delays into the real RFC 3550 estimator must
	// land near the requested call-average jitter — the round trip that
	// ties the packet model to the metric triple.
	m := quality.Metrics{RTTMs: 100, LossRate: 0, JitterMs: 9}
	cfg := DefaultTraceConfig()
	cfg.DurationSec = 300
	cfg.SpikeProb = 0
	tr := Synthesize(m, cfg, rng())

	var est rtp.JitterEstimator
	for i, d := range tr.OneWayDelayMs {
		if tr.Lost[i] {
			continue
		}
		sendNs := int64(float64(i) * tr.IntervalMs * 1e6)
		arrivalNs := sendNs + int64(d*1e6)
		ts := uint32(i * rtp.ClockRate / cfg.PPS)
		est.Observe(ts, arrivalNs)
	}
	if got := est.Millis(); math.Abs(got-9) > 3 {
		t.Errorf("RFC 3550 jitter on synthesized trace = %v, want ~9", got)
	}
}

func TestLossBurstiness(t *testing.T) {
	m := quality.Metrics{RTTMs: 100, LossRate: 0.05, JitterMs: 2}
	mean := func(burst float64) float64 {
		cfg := DefaultTraceConfig()
		cfg.DurationSec = 600
		cfg.BurstFactor = burst
		tr := Synthesize(m, cfg, stats.NewRNG(7))
		// Mean run length of consecutive losses.
		var runs, cur, total int
		for _, l := range tr.Lost {
			if l {
				cur++
				total++
			} else if cur > 0 {
				runs++
				cur = 0
			}
		}
		if cur > 0 {
			runs++
		}
		if runs == 0 {
			return 0
		}
		return float64(total) / float64(runs)
	}
	independent := mean(1)
	bursty := mean(5)
	if bursty < independent+1 {
		t.Errorf("burst factor ignored: mean run %v (burst=5) vs %v (burst=1)", bursty, independent)
	}
}

func TestPlayoutCleanCall(t *testing.T) {
	m := quality.Metrics{RTTMs: 60, LossRate: 0, JitterMs: 1}
	tr := Synthesize(m, DefaultTraceConfig(), rng())
	res := Playout(tr, 60, quality.DefaultEModel())
	if res.NetworkLoss != 0 {
		t.Errorf("clean call network loss %v", res.NetworkLoss)
	}
	if res.LateLoss > 0.01 {
		t.Errorf("clean call late loss %v", res.LateLoss)
	}
	if res.MOS < 3.5 {
		t.Errorf("clean call MOS %v", res.MOS)
	}
}

func TestPlayoutLateLossFromJitter(t *testing.T) {
	// Huge jitter with a small buffer must produce late discards.
	m := quality.Metrics{RTTMs: 100, LossRate: 0, JitterMs: 40}
	tr := Synthesize(m, DefaultTraceConfig(), rng())
	small := Playout(tr, 20, quality.DefaultEModel())
	big := Playout(tr, 200, quality.DefaultEModel())
	if small.LateLoss <= big.LateLoss {
		t.Errorf("late loss should shrink with buffer: %v vs %v", small.LateLoss, big.LateLoss)
	}
	if small.LateLoss < 0.02 {
		t.Errorf("40ms jitter with 20ms buffer lost only %v late", small.LateLoss)
	}
	// But the big buffer pays in mouth-to-ear delay.
	if big.MouthToEarMs <= small.MouthToEarMs {
		t.Error("deeper buffer should increase mouth-to-ear delay")
	}
}

func TestPlayoutMOSOrdering(t *testing.T) {
	good := quality.Metrics{RTTMs: 80, LossRate: 0.001, JitterMs: 2}
	bad := quality.Metrics{RTTMs: 500, LossRate: 0.06, JitterMs: 30}
	g := TraceMOS(good, DefaultTraceConfig(), stats.NewRNG(2))
	b := TraceMOS(bad, DefaultTraceConfig(), stats.NewRNG(3))
	if g <= b {
		t.Errorf("MOS ordering violated: good %v <= bad %v", g, b)
	}
	if g < 1 || g > 4.5 || b < 1 || b > 4.5 {
		t.Errorf("MOS out of range: %v %v", g, b)
	}
}

func TestPlayoutAllLost(t *testing.T) {
	tr := &Trace{
		IntervalMs:    20,
		OneWayDelayMs: []float64{10, 10},
		Lost:          []bool{true, true},
	}
	res := Playout(tr, 60, quality.DefaultEModel())
	if res.NetworkLoss != 1 || res.MOS != 1 {
		t.Errorf("all-lost call: %+v", res)
	}
	empty := Playout(&Trace{}, 60, quality.DefaultEModel())
	if empty.MOS != 1 {
		t.Errorf("empty trace MOS %v", empty.MOS)
	}
}

// The §2.2 validation: calls rated non-poor by the average-metric
// thresholds should have trace-level MOS above most calls rated poor.
func TestThresholdsAgreeWithTraceMOS(t *testing.T) {
	r := stats.NewRNG(11)
	var poorMOS, nonPoorMOS []float64
	for i := 0; i < 600; i++ {
		m := quality.Metrics{
			RTTMs:    r.LogNormal(math.Log(150), 0.8),
			LossRate: math.Min(0.3, r.LogNormal(math.Log(0.004), 1.2)),
			JitterMs: r.LogNormal(math.Log(6), 0.9),
		}
		mos := TraceMOS(m, DefaultTraceConfig(), r)
		if m.AtLeastOneBad() {
			poorMOS = append(poorMOS, mos)
		} else {
			nonPoorMOS = append(nonPoorMOS, mos)
		}
	}
	if len(poorMOS) < 50 || len(nonPoorMOS) < 50 {
		t.Fatalf("unbalanced classes: %d poor, %d non-poor", len(poorMOS), len(nonPoorMOS))
	}
	p75 := stats.Quantile(poorMOS, 0.75)
	above := 0
	for _, v := range nonPoorMOS {
		if v > p75 {
			above++
		}
	}
	frac := float64(above) / float64(len(nonPoorMOS))
	// Paper: 80% of non-poor calls exceed the 75th percentile of poor
	// calls' MOS.
	if frac < 0.6 {
		t.Errorf("only %.0f%% of non-poor calls above poor p75 MOS; thresholds disagree with trace MOS", frac*100)
	}
}

func BenchmarkSynthesize(b *testing.B) {
	m := quality.Metrics{RTTMs: 200, LossRate: 0.02, JitterMs: 8}
	r := stats.NewRNG(1)
	cfg := DefaultTraceConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Synthesize(m, cfg, r)
	}
}

func BenchmarkTraceMOS(b *testing.B) {
	m := quality.Metrics{RTTMs: 200, LossRate: 0.02, JitterMs: 8}
	r := stats.NewRNG(1)
	cfg := DefaultTraceConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TraceMOS(m, cfg, r)
	}
}

// networkLossRate returns the fraction of packets dropped by the network.
func (t *Trace) networkLossRate() float64 {
	if len(t.Lost) == 0 {
		return 0
	}
	lost := 0
	for _, l := range t.Lost {
		if l {
			lost++
		}
	}
	return float64(lost) / float64(len(t.Lost))
}
