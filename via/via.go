// Package via is the public API of the Via reproduction — the predictive
// relay selection system of "Via: Improving Internet Telephony Call Quality
// Using Predictive Relay Selection" (SIGCOMM 2016).
//
// The package exposes four layers:
//
//   - The world model and workload: a synthetic Internet (ASes, managed
//     relays, path dynamics) and a call-trace generator standing in for the
//     paper's Skype dataset. See NewWorld and GenerateTrace.
//
//   - Relay selection: the Via algorithm (tomography-expanded prediction,
//     confidence-interval top-k pruning, modified UCB1
//     exploration-exploitation, budgeted relaying) plus the paper's
//     baselines. See NewSelector, NewOracle, NewDefault, NewPredictOnly,
//     NewExploreOnly.
//
//   - Trace-driven simulation (§5.1): replay a trace against strategies and
//     account PNR, percentiles, and option mix. See NewSimulator.
//
//   - A real-networking testbed (§5.5): controller, relay nodes, and call
//     agents over UDP with WAN impairment on loopback. See the testbed
//     command binaries (cmd/viactl, cmd/viarelay, cmd/viaclient) and
//     internal/testbed for in-process orchestration.
//
// The experiment harness that regenerates every table and figure of the
// paper is available via RunExperiment and the cmd/viabench binary.
package via

import (
	"io"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Core data types, re-exported for API clients.
type (
	// World is the synthetic Internet model: ASes, relays, ground-truth
	// path performance with temporal dynamics.
	World = netsim.World
	// WorldConfig parameterizes world construction.
	WorldConfig = netsim.Config
	// ASID identifies an autonomous system.
	ASID = netsim.ASID
	// RelayID identifies a managed relay.
	RelayID = netsim.RelayID
	// Option is a relaying option: direct, bounce, or transit.
	Option = netsim.Option
	// Metrics is the per-call average (RTT, loss rate, jitter) triple.
	Metrics = quality.Metrics
	// Metric selects one of the three network metrics.
	Metric = quality.Metric
	// PNR accumulates the Poor Network Rate over calls.
	PNR = quality.PNR
	// CallRecord is one call in a workload trace.
	CallRecord = trace.CallRecord
	// TraceConfig parameterizes workload generation.
	TraceConfig = trace.Config
	// Strategy assigns relaying options to calls and learns from outcomes.
	Strategy = core.Strategy
	// Call is the per-call context passed to strategies.
	Call = core.Call
	// SelectorConfig tunes the Via strategy.
	SelectorConfig = core.ViaConfig
	// Selector is the full Via relay-selection strategy.
	Selector = core.Via
	// Prediction is a per-option performance estimate with confidence.
	Prediction = core.Prediction
	// SimulatorConfig tunes trace-driven simulation.
	SimulatorConfig = sim.Config
	// Simulator replays traces against strategies (§5.1 methodology).
	Simulator = sim.Runner
	// Result aggregates one strategy's simulated outcomes.
	Result = sim.Result
	// BackboneSource supplies inter-relay telemetry to the predictor.
	BackboneSource = core.BackboneSource
)

// Metric identifiers.
const (
	RTT    = quality.RTT
	Loss   = quality.Loss
	Jitter = quality.Jitter
)

// Poor-performance thresholds (§2.2).
const (
	PoorRTTMs    = quality.PoorRTTMs
	PoorLossRate = quality.PoorLossRate
	PoorJitterMs = quality.PoorJitterMs
)

// DirectOption returns the default-path option.
func DirectOption() Option { return netsim.DirectOption() }

// BounceOption returns a single-relay option.
func BounceOption(r RelayID) Option { return netsim.BounceOption(r) }

// TransitOption returns an ingress/egress relay-pair option.
func TransitOption(in, out RelayID) Option { return netsim.TransitOption(in, out) }

// NewWorld builds the standard synthetic Internet (150 ASes across 36
// countries, 24 relays) from a seed.
func NewWorld(seed uint64) *World {
	return netsim.New(netsim.DefaultConfig(seed))
}

// NewWorldWithConfig builds a world from an explicit configuration.
func NewWorldWithConfig(cfg WorldConfig) *World { return netsim.New(cfg) }

// DefaultWorldConfig returns the standard world configuration.
func DefaultWorldConfig(seed uint64) WorldConfig { return netsim.DefaultConfig(seed) }

// GenerateTrace produces a chronological synthetic call trace with the
// paper's workload composition (46.6% international, 80.7% inter-AS,
// Zipf-skewed pair volume) over 28 days.
func GenerateTrace(w *World, seed uint64, calls int) []CallRecord {
	return trace.NewGenerator(w, trace.DefaultConfig(seed, calls)).GenerateSlice()
}

// GenerateTraceWithConfig produces a trace from an explicit configuration.
func GenerateTraceWithConfig(w *World, cfg TraceConfig) []CallRecord {
	return trace.NewGenerator(w, cfg).GenerateSlice()
}

// DefaultTraceConfig returns the standard workload configuration.
func DefaultTraceConfig(seed uint64, calls int) TraceConfig {
	return trace.DefaultConfig(seed, calls)
}

// WriteTraceCSV freezes a trace as a CSV dataset artifact.
func WriteTraceCSV(w io.Writer, recs []CallRecord) error {
	return trace.WriteCSV(w, recs)
}

// ReadTraceCSV loads a trace written by WriteTraceCSV, validating record
// invariants.
func ReadTraceCSV(r io.Reader) ([]CallRecord, error) {
	return trace.ReadCSV(r)
}

// DefaultSelectorConfig returns the evaluated Via operating point for a
// target metric.
func DefaultSelectorConfig(m Metric) SelectorConfig { return core.DefaultViaConfig(m) }

// NewSelector builds the full Via strategy. bb supplies inter-relay
// telemetry (a *World works; nil makes backbone links tomography unknowns).
func NewSelector(cfg SelectorConfig, bb BackboneSource) *Selector {
	return core.NewVia(cfg, bb)
}

// NewDefault returns the always-direct baseline strategy.
func NewDefault() Strategy { return core.DefaultStrategy{} }

// NewOracle returns the benefit-of-foresight baseline (§3.2).
func NewOracle(w *World, m Metric) Strategy { return core.NewOracle(w, m) }

// NewBudgetedOracle returns an oracle limited to relaying a fraction of
// calls, preferring those with the largest true benefit.
func NewBudgetedOracle(w *World, m Metric, budget float64) Strategy {
	return core.NewBudgetedOracle(w, m, budget)
}

// NewPredictOnly returns Strawman I: pure history-based prediction.
func NewPredictOnly(m Metric, bb BackboneSource) Strategy {
	return core.NewPredictOnly(m, bb)
}

// NewExploreOnly returns Strawman II: ε-greedy exploration with no
// prediction or pruning.
func NewExploreOnly(m Metric, epsilon float64, seed uint64) Strategy {
	return core.NewExploreOnly(m, epsilon, seed)
}

// NewSimulator builds the §5.1 trace-driven simulator for a world.
func NewSimulator(w *World, cfg SimulatorConfig) *Simulator {
	return sim.NewRunner(w, cfg)
}

// DefaultSimulatorConfig returns the evaluation methodology's parameters
// (eligibility filters, seeded connectivity-relay fraction).
func DefaultSimulatorConfig(seed uint64) SimulatorConfig {
	return sim.DefaultConfig(seed)
}

// Reduction returns the paper's relative improvement, 100·(b−a)/b.
func Reduction(baseline, treated float64) float64 {
	return quality.RelativeImprovement(baseline, treated)
}

// Quantile returns the q-th quantile of xs (q in [0,1]).
func Quantile(xs []float64, q float64) float64 { return stats.Quantile(xs, q) }
