// Package packets is a per-packet call simulator: given a call's average
// network conditions (the triple everything else operates on), it
// synthesizes the packet-level experience of that call — correlated delay
// (AR(1) jitter process around the path delay), bursty loss (a two-state
// Gilbert-Elliott channel), and transient spikes — and evaluates the
// perceptual outcome by emulating a receiver jitter buffer and scoring the
// result with the E-model.
//
// This reproduces the validation paragraph of §2.2: the paper checked, on
// 70K calls with full packet traces, that thresholds on call-average
// metrics agree with packet-trace-based MOS (80% of "non-poor" calls had a
// trace MOS above 75% of "poor" calls). The same check runs here against
// synthesized traces (see the "mos" experiment).
package packets

import (
	"math"

	"repro/internal/quality"
	"repro/internal/stats"
)

// TraceConfig shapes a synthesized packet trace.
type TraceConfig struct {
	// DurationSec and PPS give the packet count (default 30s at 50 pps).
	DurationSec float64
	PPS         int
	// JitterCorr is the AR(1) coefficient of the delay process; closer to
	// 1 means smoother, more correlated delay variation.
	JitterCorr float64
	// BurstFactor controls loss burstiness: the expected loss-burst length
	// in packets of the Gilbert-Elliott channel (1 = independent losses).
	BurstFactor float64
	// SpikeProb is the per-packet probability of entering a delay spike.
	SpikeProb float64
}

// DefaultTraceConfig returns a VoIP-typical trace shape: 30 s calls, 20 ms
// frames, moderately correlated jitter and 3-packet loss bursts.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{
		DurationSec: 30,
		PPS:         50,
		JitterCorr:  0.7,
		BurstFactor: 3,
		SpikeProb:   0.002,
	}
}

// Trace is a synthesized packet-level record of one call.
type Trace struct {
	// IntervalMs is the nominal packet spacing.
	IntervalMs float64
	// OneWayDelayMs[i] is packet i's network delay; Lost[i] marks network
	// drops (delay is meaningless for lost packets).
	OneWayDelayMs []float64
	Lost          []bool
}

// Packets returns the trace length.
func (t *Trace) Packets() int { return len(t.OneWayDelayMs) }

// Synthesize generates a packet trace whose long-run averages match the
// given call-average metrics:
//
//   - mean one-way delay = RTT/2;
//   - the delay deviation process is AR(1) scaled so the RFC 3550 jitter
//     estimator would converge near JitterMs;
//   - losses follow a Gilbert-Elliott channel with stationary loss rate
//     LossRate and mean burst length BurstFactor.
func Synthesize(m quality.Metrics, cfg TraceConfig, rng *stats.RNG) *Trace {
	if cfg.PPS <= 0 {
		cfg.PPS = 50
	}
	if cfg.DurationSec <= 0 {
		cfg.DurationSec = 30
	}
	if cfg.JitterCorr < 0 || cfg.JitterCorr >= 1 {
		cfg.JitterCorr = 0.7
	}
	if cfg.BurstFactor < 1 {
		cfg.BurstFactor = 1
	}
	n := int(cfg.DurationSec * float64(cfg.PPS))
	if n < 10 {
		n = 10
	}
	tr := &Trace{
		IntervalMs:    1000 / float64(cfg.PPS),
		OneWayDelayMs: make([]float64, n),
		Lost:          make([]bool, n),
	}

	base := m.RTTMs / 2

	// AR(1) deviation process: x_i = ρ x_{i-1} + ε. The RFC 3550 jitter is
	// a smoothed mean of |Δdelay| between consecutive packets;
	// E|Δx| = σ_x √(2(1−ρ)) · √(2/π) for Gaussian x, so we scale σ_ε to
	// land the estimator near the requested jitter.
	rho := cfg.JitterCorr
	sigmaX := 0.0
	if m.JitterMs > 0 {
		sigmaX = m.JitterMs / (math.Sqrt(2*(1-rho)) * math.Sqrt(2/math.Pi))
	}
	sigmaE := sigmaX * math.Sqrt(1-rho*rho)

	// Gilbert-Elliott: p(good→bad) and p(bad→good) from stationary loss
	// rate π_B = LossRate and mean burst length 1/pBG = BurstFactor.
	pBG := 1 / cfg.BurstFactor
	var pGB float64
	if m.LossRate > 0 && m.LossRate < 1 {
		pGB = pBG * m.LossRate / (1 - m.LossRate)
		if pGB > 1 {
			pGB = 1
		}
	}

	x := rng.Normal(0, sigmaX)
	bad := rng.Float64() < m.LossRate
	spikeLeft := 0
	for i := 0; i < n; i++ {
		x = rho*x + rng.Normal(0, sigmaE)
		d := base + x
		if spikeLeft > 0 {
			spikeLeft--
			d += 40 + rng.Exponential(60)
		} else if cfg.SpikeProb > 0 && rng.Float64() < cfg.SpikeProb {
			spikeLeft = 2 + rng.IntN(8)
		}
		if d < 0.1 {
			d = 0.1
		}
		tr.OneWayDelayMs[i] = d

		if bad {
			tr.Lost[i] = true
			if rng.Float64() < pBG {
				bad = false
			}
		} else if rng.Float64() < pGB {
			bad = true
			tr.Lost[i] = true
		}
	}
	return tr
}

// PlayoutResult is the outcome of emulating a receiver jitter buffer over a
// trace.
type PlayoutResult struct {
	// NetworkLoss, LateLoss are the fractions dropped by the network and
	// discarded for arriving past their deadline.
	NetworkLoss float64
	LateLoss    float64
	// MouthToEarMs is the average one-way latency experienced, including
	// the buffer.
	MouthToEarMs float64
	// MOS is the E-model score from the trace-level impairments.
	MOS float64
}

// EffectiveLoss is the total fraction of frames missing at playout.
func (p PlayoutResult) EffectiveLoss() float64 {
	return p.NetworkLoss + p.LateLoss
}

// Playout emulates a fixed jitter buffer of the given depth over a trace
// and scores the call: a packet is playable if its delay does not exceed
// the minimum observed delay plus the buffer depth.
func Playout(tr *Trace, bufferMs float64, codec quality.EModelConfig) PlayoutResult {
	n := tr.Packets()
	if n == 0 {
		return PlayoutResult{MOS: 1}
	}
	minDelay := math.Inf(1)
	for i, d := range tr.OneWayDelayMs {
		if !tr.Lost[i] && d < minDelay {
			minDelay = d
		}
	}
	if math.IsInf(minDelay, 1) {
		// Everything was lost.
		return PlayoutResult{NetworkLoss: 1, MOS: 1}
	}
	deadline := minDelay + bufferMs
	var netLost, late int
	var sumDelay float64
	var played int
	for i, d := range tr.OneWayDelayMs {
		switch {
		case tr.Lost[i]:
			netLost++
		case d > deadline:
			late++
		default:
			played++
			sumDelay += deadline // played at the buffer deadline
		}
	}
	res := PlayoutResult{
		NetworkLoss: float64(netLost) / float64(n),
		LateLoss:    float64(late) / float64(n),
	}
	if played > 0 {
		res.MouthToEarMs = sumDelay/float64(played) + codec.CodecDelayMs
	}

	// Score with the E-model directly from trace-level impairments: the
	// effective loss already includes late discards, so bypass the
	// metric-triple approximation.
	d := res.MouthToEarMs
	id := 0.024 * d
	if d > 177.3 {
		id += 0.11 * (d - 177.3)
	}
	e := res.EffectiveLoss()
	ie := 11 + 40*math.Log(1+10*e) // G.729a curve, as elsewhere
	res.MOS = quality.RToMOS(94.2 - id - ie)
	return res
}

// TraceMOS synthesizes a packet trace for the call-average metrics and
// returns its playout MOS with the default 60 ms buffer — the "proprietary
// MOS calculator on packet traces" stand-in of §2.2.
func TraceMOS(m quality.Metrics, cfg TraceConfig, rng *stats.RNG) float64 {
	tr := Synthesize(m, cfg, rng)
	return Playout(tr, 60, quality.DefaultEModel()).MOS
}
