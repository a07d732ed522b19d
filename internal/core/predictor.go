// Package core implements Via's relay selection — the paper's primary
// contribution (§4): a performance predictor built from passive call history
// expanded by network tomography, confidence-interval-based top-k pruning
// (Algorithm 2), a modified UCB1 exploration-exploitation step over the
// pruned candidates (Algorithm 3), ε general exploration to track drifting
// distributions, and a percentile-based budget gate (§4.6). It also provides
// the baselines the paper compares against: the oracle, pure prediction
// (Strawman I), pure exploration (Strawman II), and the always-direct
// default.
package core

import (
	"math"

	"repro/internal/history"
	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/tomo"
)

// BackboneSource supplies inter-relay performance for a time bucket. The
// provider operates the backbone and has this telemetry (§3.2); in
// simulation netsim.World implements it. The served path (viactl, the
// testbed, fig18) has no backbone source, so there backbone links are
// tomography unknowns.
type BackboneSource interface {
	BackboneMetrics(r1, r2 netsim.RelayID, window int) quality.Metrics
}

// Prediction is the predictor's estimate for one (pair, option): per-metric
// mean and standard error, from which the 95% confidence bounds of
// Algorithm 2 derive.
type Prediction struct {
	Mean [quality.NumMetrics]float64
	SEM  [quality.NumMetrics]float64
	N    int64 // samples behind the estimate (0 for pure tomography)
	Tomo bool  // true when stitched from segment estimates
}

// Lower returns the 95% lower confidence bound on metric m, clamped at 0.
func (p Prediction) Lower(m quality.Metric) float64 {
	v := p.Mean[m] - 1.96*p.SEM[m]
	if v < 0 {
		return 0
	}
	return v
}

// Upper returns the 95% upper confidence bound on metric m.
func (p Prediction) Upper(m quality.Metric) float64 {
	return p.Mean[m] + 1.96*p.SEM[m]
}

type poKey struct {
	a, b int32 // canonical group pair (a <= b)
	opt  netsim.Option
}

func makePOKey(a, b int32, opt netsim.Option) poKey {
	if a > b {
		a, b = b, a
		if opt.Kind == netsim.Transit {
			opt.R1, opt.R2 = opt.R2, opt.R1
		}
	}
	return poKey{a, b, opt}
}

type segID struct {
	kind uint8 // 0 = access(group, relay), 1 = backbone(r1, r2)
	a, b int32
}

// PredictorConfig tunes predictor construction.
type PredictorConfig struct {
	// MinSamples is the sample count below which a seen (pair, option)
	// falls back to tomography instead of trusting its own noisy history.
	MinSamples int64
	// SEMFloorFrac keeps confidence intervals honest for tiny aggregates:
	// SEM is floored at Mean·SEMFloorFrac/√N.
	SEMFloorFrac float64
	// TomoIters bounds the Gauss–Seidel sweeps per metric.
	TomoIters int
	// DisableTomography turns off coverage expansion (ablation).
	DisableTomography bool
	// TrainBuckets is how many trailing buckets feed training (default 1:
	// just the previous period, as in the paper's 24-hour lookback).
	TrainBuckets int
}

// DefaultPredictorConfig returns the configuration used in the evaluation.
func DefaultPredictorConfig() PredictorConfig {
	return PredictorConfig{
		MinSamples:   8,
		SEMFloorFrac: 0.25,
		TomoIters:    60,
		TrainBuckets: 3,
	}
}

// Predictor predicts per-option performance for a time bucket, trained on
// the previous bucket's history (stage 2-3 of Figure 10).
type Predictor struct {
	cfg     PredictorConfig
	seen    map[poKey]Prediction
	segIdx  map[segID]int
	nSegs   int
	tomoRes [quality.NumMetrics]*tomo.Result
	bb      BackboneSource
	bucket  int
}

// BuildPredictor trains a predictor from the given history bucket
// (Algorithm 1, line 1). bb may be nil, in which case backbone links become
// additional tomography unknowns.
func BuildPredictor(h *history.Store, bucket int, bb BackboneSource, cfg PredictorConfig) *Predictor {
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 3
	}
	if cfg.SEMFloorFrac <= 0 {
		cfg.SEMFloorFrac = 0.25
	}
	if cfg.TomoIters <= 0 {
		cfg.TomoIters = 60
	}
	p := &Predictor{
		cfg:    cfg,
		seen:   make(map[poKey]Prediction),
		segIdx: make(map[segID]int),
		bb:     bb,
		bucket: bucket,
	}

	if cfg.TrainBuckets <= 0 {
		cfg.TrainBuckets = 1
	}
	p.cfg = cfg

	type obs struct {
		segs  []int
		value [quality.NumMetrics]float64
		w     float64
	}
	var observations []obs

	// Merge the trailing training buckets into one aggregate per
	// (pair, option) before prediction.
	merged := make(map[poKey]*history.Agg)
	var order []poKey
	for b := bucket - cfg.TrainBuckets + 1; b <= bucket; b++ {
		h.EachOpt(b, func(pair history.PairKey, opt netsim.Option, a *history.Agg) {
			k := makePOKey(int32(pair.A), int32(pair.B), opt)
			m := merged[k]
			if m == nil {
				m = &history.Agg{}
				merged[k] = m
				order = append(order, k)
			}
			for _, met := range quality.AllMetrics() {
				m.Metrics[met].Merge(a.Metrics[met])
			}
			m.PNR.Merge(a.PNR)
		})
	}

	process := func(pair history.PairKey, opt netsim.Option, a *history.Agg) {
		pred := Prediction{N: a.N()}
		for _, m := range quality.AllMetrics() {
			mean := a.Metrics[m].Mean
			sem := a.Metrics[m].SEM()
			floor := mean * cfg.SEMFloorFrac / math.Sqrt(float64(a.N()))
			if sem < floor {
				sem = floor
			}
			pred.Mean[m] = mean
			pred.SEM[m] = sem
		}
		p.seen[makePOKey(int32(pair.A), int32(pair.B), opt)] = pred

		if cfg.DisableTomography || !opt.IsRelayed() {
			return
		}
		// Tomography observation: the relayed path decomposes into access
		// legs (and, for transit, the backbone link). When backbone
		// telemetry is available the known contribution is subtracted so
		// only access legs remain unknown.
		var o obs
		o.w = float64(a.N())
		o.value[quality.RTT] = a.Metrics[quality.RTT].Mean
		o.value[quality.Loss] = tomo.LinearizeLoss(a.Metrics[quality.Loss].Mean)
		o.value[quality.Jitter] = a.Metrics[quality.Jitter].Mean
		switch opt.Kind {
		case netsim.Bounce:
			o.segs = []int{
				p.seg(segID{0, int32(pair.A), int32(opt.R1)}),
				p.seg(segID{0, int32(pair.B), int32(opt.R1)}),
			}
		case netsim.Transit:
			o.segs = []int{
				p.seg(segID{0, int32(pair.A), int32(opt.R1)}),
				p.seg(segID{0, int32(pair.B), int32(opt.R2)}),
			}
			if bb != nil {
				bm := bb.BackboneMetrics(opt.R1, opt.R2, bucket)
				o.value[quality.RTT] = maxF(0, o.value[quality.RTT]-bm.RTTMs)
				o.value[quality.Loss] = maxF(0, o.value[quality.Loss]-tomo.LinearizeLoss(bm.LossRate))
				o.value[quality.Jitter] = maxF(0, o.value[quality.Jitter]-bm.JitterMs)
			} else {
				o.segs = append(o.segs, p.seg(backboneSegID(opt.R1, opt.R2)))
			}
		}
		observations = append(observations, o)
	}
	for _, k := range order {
		process(history.PairKey{A: netsim.ASID(k.a), B: netsim.ASID(k.b)}, k.opt, merged[k])
	}

	if !cfg.DisableTomography && len(observations) > 0 {
		for _, m := range quality.AllMetrics() {
			solver := tomo.NewSolver(p.nSegs)
			for _, o := range observations {
				solver.AddObservation(o.segs, o.value[m], o.w)
			}
			p.tomoRes[m] = solver.Solve(cfg.TomoIters, 1e-8)
		}
	}
	return p
}

func backboneSegID(r1, r2 netsim.RelayID) segID {
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	return segID{1, int32(r1), int32(r2)}
}

// seg interns a segment id, assigning indices on first use.
func (p *Predictor) seg(id segID) int {
	if i, ok := p.segIdx[id]; ok {
		return i
	}
	i := p.nSegs
	p.segIdx[id] = i
	p.nSegs++
	return i
}

// Predict estimates the performance of option opt for calls between groups
// a and b. When both the pair's own history and a tomography-stitched
// estimate exist they are combined by inverse-variance weighting — the
// pair-specific signal dominates once it has enough samples, while the
// segment estimates (pooled across every pair sharing the access legs)
// carry sparse options. Once the pair's history reaches MinSamples it is
// trusted alone.
func (p *Predictor) Predict(a, b int32, opt netsim.Option) (Prediction, bool) {
	k := makePOKey(a, b, opt)
	hist, okH := p.seen[k]
	tomoP, okT := p.predictTomo(k.a, k.b, k.opt)
	switch {
	case okH && !okT:
		return hist, true
	case !okH && okT:
		return tomoP, true
	case !okH && !okT:
		return Prediction{}, false
	}
	if hist.N >= p.cfg.MinSamples {
		return hist, true
	}
	return combine(hist, tomoP), true
}

// combine merges two independent estimates by precision weighting, per
// metric. The result keeps the history's sample count and is flagged as
// tomography-assisted.
func combine(a, b Prediction) Prediction {
	out := Prediction{N: a.N, Tomo: true}
	for _, m := range quality.AllMetrics() {
		va := a.SEM[m] * a.SEM[m]
		vb := b.SEM[m] * b.SEM[m]
		switch {
		case va <= 0 && vb <= 0:
			out.Mean[m] = (a.Mean[m] + b.Mean[m]) / 2
		case va <= 0:
			out.Mean[m], out.SEM[m] = a.Mean[m], a.SEM[m]
		case vb <= 0:
			out.Mean[m], out.SEM[m] = b.Mean[m], b.SEM[m]
		default:
			wa, wb := 1/va, 1/vb
			out.Mean[m] = (wa*a.Mean[m] + wb*b.Mean[m]) / (wa + wb)
			out.SEM[m] = math.Sqrt(1 / (wa + wb))
		}
	}
	return out
}

// predictTomo stitches segment estimates into a path prediction.
func (p *Predictor) predictTomo(a, b int32, opt netsim.Option) (Prediction, bool) {
	if p.tomoRes[quality.RTT] == nil || !opt.IsRelayed() {
		return Prediction{}, false
	}
	var segs []int
	var bbm quality.Metrics
	switch opt.Kind {
	case netsim.Bounce:
		s1, ok1 := p.segIdx[segID{0, a, int32(opt.R1)}]
		s2, ok2 := p.segIdx[segID{0, b, int32(opt.R1)}]
		if !ok1 || !ok2 {
			return Prediction{}, false
		}
		segs = []int{s1, s2}
	case netsim.Transit:
		s1, ok1 := p.segIdx[segID{0, a, int32(opt.R1)}]
		s2, ok2 := p.segIdx[segID{0, b, int32(opt.R2)}]
		if !ok1 || !ok2 {
			return Prediction{}, false
		}
		segs = []int{s1, s2}
		if p.bb != nil {
			bbm = p.bb.BackboneMetrics(opt.R1, opt.R2, p.bucket)
		} else {
			s3, ok3 := p.segIdx[backboneSegID(opt.R1, opt.R2)]
			if !ok3 {
				return Prediction{}, false
			}
			segs = append(segs, s3)
		}
	}

	var out Prediction
	out.Tomo = true
	for _, m := range quality.AllMetrics() {
		v, sem, ok := p.tomoRes[m].PredictPath(segs)
		if !ok {
			return Prediction{}, false
		}
		switch m {
		case quality.Loss:
			v += tomo.LinearizeLoss(bbm.LossRate)
			loss := tomo.DelinearizeLoss(v)
			out.Mean[m] = loss
			out.SEM[m] = (1 - loss) * sem // d/dx (1−e^(−x)) = e^(−x)
		case quality.RTT:
			out.Mean[m] = v + bbm.RTTMs
			out.SEM[m] = sem
		case quality.Jitter:
			out.Mean[m] = v + bbm.JitterMs
			out.SEM[m] = sem
		}
	}
	return out, true
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
