// Package quality defines the network-performance metric triple used
// throughout the Via reproduction (RTT, loss rate, jitter), the paper's
// thresholds for poor network performance, the Poor Network Rate (PNR) and
// Poor Call Rate (PCR) statistics, the Cole–Rosenbluth E-model MOS
// calculator the paper cites ([17]), and the synthetic user-rating model
// that stands in for Skype's 5-star call ratings.
package quality

import (
	"fmt"
	"math"
)

// Metric identifies one of the three network performance metrics.
type Metric int

const (
	RTT    Metric = iota // round-trip time, milliseconds
	Loss                 // packet loss rate, fraction in [0,1]
	Jitter               // interarrival jitter, milliseconds
	NumMetrics
)

// String returns the metric's short name.
func (m Metric) String() string {
	switch m {
	case RTT:
		return "rtt"
	case Loss:
		return "loss"
	case Jitter:
		return "jitter"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// AllMetrics lists the three metrics in canonical order.
func AllMetrics() []Metric { return []Metric{RTT, Loss, Jitter} }

// Thresholds for poor network performance (§2.2): a call is poor on a metric
// when the call-average value is at or beyond these.
const (
	PoorRTTMs    = 320.0 // ms
	PoorLossRate = 0.012 // 1.2%
	PoorJitterMs = 12.0  // ms
)

// Threshold returns the poor-performance threshold for m.
func Threshold(m Metric) float64 {
	switch m {
	case RTT:
		return PoorRTTMs
	case Loss:
		return PoorLossRate
	case Jitter:
		return PoorJitterMs
	default:
		panic("quality: unknown metric")
	}
}

// Metrics is the per-call average network performance triple.
type Metrics struct {
	RTTMs    float64 // round-trip time in milliseconds
	LossRate float64 // loss fraction in [0, 1]
	JitterMs float64 // RFC 3550-style interarrival jitter in milliseconds
}

// Get returns the value of metric m.
func (q Metrics) Get(m Metric) float64 {
	switch m {
	case RTT:
		return q.RTTMs
	case Loss:
		return q.LossRate
	case Jitter:
		return q.JitterMs
	default:
		panic("quality: unknown metric")
	}
}

// set assigns the value of metric m.
func (q *Metrics) set(m Metric, v float64) {
	switch m {
	case RTT:
		q.RTTMs = v
	case Loss:
		q.LossRate = v
	case Jitter:
		q.JitterMs = v
	default:
		panic("quality: unknown metric")
	}
}

// PoorOn reports whether the call is poor on metric m (value at or beyond
// the threshold).
func (q Metrics) PoorOn(m Metric) bool {
	return q.Get(m) >= Threshold(m)
}

// AtLeastOneBad reports whether any of the three metrics is poor — the
// paper's combined criterion.
func (q Metrics) AtLeastOneBad() bool {
	return q.PoorOn(RTT) || q.PoorOn(Loss) || q.PoorOn(Jitter)
}

// Valid reports whether the triple is physically sensible (non-negative,
// loss within [0,1], no NaN/Inf).
func (q Metrics) Valid() bool {
	for _, v := range []float64{q.RTTMs, q.LossRate, q.JitterMs} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return false
		}
	}
	return q.LossRate <= 1
}

// PNR accumulates Poor Network Rate counters over a stream of calls: the
// fraction of calls whose average performance is poor, per metric and on the
// "at least one bad" criterion.
type PNR struct {
	Total int64
	Poor  [NumMetrics]int64
	AnyuB int64 // count with at least one bad metric
}

// Add counts one call.
func (p *PNR) Add(q Metrics) {
	p.Total++
	any := false
	for _, m := range AllMetrics() {
		if q.PoorOn(m) {
			p.Poor[m]++
			any = true
		}
	}
	if any {
		p.AnyuB++
	}
}

// Rate returns the PNR for metric m, or 0 with no calls.
func (p *PNR) Rate(m Metric) float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Poor[m]) / float64(p.Total)
}

// AtLeastOneBadRate returns the fraction of calls with any poor metric.
func (p *PNR) AtLeastOneBadRate() float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.AnyuB) / float64(p.Total)
}

// Merge combines another accumulator into this one.
func (p *PNR) Merge(o PNR) {
	p.Total += o.Total
	p.AnyuB += o.AnyuB
	for i := range p.Poor {
		p.Poor[i] += o.Poor[i]
	}
}

// RelativeImprovement returns 100·(b−a)/b — the paper's definition of
// relative improvement when a statistic goes from b (baseline) to a
// (treatment). Positive means improvement; 0 when b is 0.
func RelativeImprovement(baseline, treatment float64) float64 {
	if baseline == 0 {
		return 0
	}
	return 100 * (baseline - treatment) / baseline
}
