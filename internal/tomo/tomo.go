// Package tomo implements the linear network tomography of §4.4: combining
// end-to-end measurements over partially overlapping relay paths to estimate
// the performance of the individual network segments (client-AS↔relay legs),
// then stitching segment estimates back together to predict the performance
// of relay paths that have no direct call history.
//
// Metrics must compose linearly over a path. RTT and (approximately) jitter
// already do; loss rate is linearized via x = −ln(1−p), which is additive
// under the independence assumption the paper makes ([12]).
//
// The estimator solves the weighted least-squares system
//
//	minimize Σᵢ wᵢ (Σ_{j∈Sᵢ} x_j − yᵢ)²  subject to x ≥ 0
//
// by projected coordinate descent (Gauss–Seidel), which converges quickly on
// these sparse, diagonally dominant systems and needs no matrix package.
package tomo

import (
	"math"
)

// LinearizeLoss maps a loss rate p∈[0,1) to its additive form −ln(1−p).
// Values ≥ 1 are clamped just below 1 to keep the result finite.
func LinearizeLoss(p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 0.999999 {
		p = 0.999999
	}
	return -math.Log(1 - p)
}

// DelinearizeLoss inverts LinearizeLoss: p = 1 − e^(−x).
func DelinearizeLoss(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return 1 - math.Exp(-x)
}

// Observation is one end-to-end measurement of a path made of known
// segments: Value is the (linearized) path metric, Weight the confidence
// (typically the sample count behind the aggregate).
type Observation struct {
	Segments []int
	Value    float64
	Weight   float64
}

// Solver estimates per-segment values from path observations.
type Solver struct {
	n   int
	obs []Observation
	// bySeg[j] lists the indices of observations touching segment j.
	bySeg [][]int
}

// NewSolver creates a solver over n segments, indexed 0..n-1.
func NewSolver(n int) *Solver {
	if n <= 0 {
		panic("tomo: need at least one segment")
	}
	return &Solver{n: n, bySeg: make([][]int, n)}
}

// AddObservation records one path measurement. Segments outside [0, n) or
// non-positive weights panic: they indicate a caller bug, not data noise.
func (s *Solver) AddObservation(segments []int, value, weight float64) {
	if weight <= 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		panic("tomo: observation needs positive weight and finite value")
	}
	idx := len(s.obs)
	segs := make([]int, len(segments))
	copy(segs, segments)
	for _, j := range segs {
		if j < 0 || j >= s.n {
			panic("tomo: segment index out of range")
		}
		s.bySeg[j] = append(s.bySeg[j], idx)
	}
	s.obs = append(s.obs, Observation{Segments: segs, Value: value, Weight: weight})
}

// Result holds the solved segment estimates and quality information.
type Result struct {
	// Estimate[j] is the solved (linearized) value of segment j; segments
	// with no observations stay 0 and are flagged in Covered.
	Estimate []float64
	// Covered[j] reports whether any observation touched segment j.
	Covered []bool
	// SEM[j] approximates the standard error of segment j's estimate from
	// the weighted residuals of the observations touching it.
	SEM []float64
	// Iterations actually run and the final mean absolute residual.
	Iterations   int
	MeanAbsResid float64
}

// Solve runs projected coordinate descent for at most maxIters sweeps,
// stopping early when the largest coordinate update falls below tol.
func (s *Solver) Solve(maxIters int, tol float64) *Result {
	if maxIters <= 0 {
		maxIters = 50
	}
	if tol <= 0 {
		tol = 1e-9
	}
	x := make([]float64, s.n)

	// Initialize each segment with a proportional share of its
	// observations' values — a good warm start that also seeds
	// single-segment observations exactly.
	for j := 0; j < s.n; j++ {
		var sum, wsum float64
		for _, oi := range s.bySeg[j] {
			o := s.obs[oi]
			sum += o.Weight * o.Value / float64(len(o.Segments))
			wsum += o.Weight
		}
		if wsum > 0 {
			x[j] = sum / wsum
		}
	}

	iters := 0
	for ; iters < maxIters; iters++ {
		maxDelta := 0.0
		for j := 0; j < s.n; j++ {
			if len(s.bySeg[j]) == 0 {
				continue
			}
			var num, den float64
			for _, oi := range s.bySeg[j] {
				o := s.obs[oi]
				rest := 0.0
				for _, k := range o.Segments {
					if k != j {
						rest += x[k]
					}
				}
				num += o.Weight * (o.Value - rest)
				den += o.Weight
			}
			nv := num / den
			if nv < 0 {
				nv = 0
			}
			if d := math.Abs(nv - x[j]); d > maxDelta {
				maxDelta = d
			}
			x[j] = nv
		}
		if maxDelta < tol {
			iters++
			break
		}
	}

	res := &Result{
		Estimate:   x,
		Covered:    make([]bool, s.n),
		SEM:        make([]float64, s.n),
		Iterations: iters,
	}
	for j := 0; j < s.n; j++ {
		res.Covered[j] = len(s.bySeg[j]) > 0
	}

	// Residual diagnostics and per-segment SEM: attribute each
	// observation's squared residual to its segments, weighted, and divide
	// by the effective observation count.
	var absSum float64
	for _, o := range s.obs {
		pred := 0.0
		for _, k := range o.Segments {
			pred += x[k]
		}
		absSum += math.Abs(pred - o.Value)
	}
	if len(s.obs) > 0 {
		res.MeanAbsResid = absSum / float64(len(s.obs))
	}
	for j := 0; j < s.n; j++ {
		ois := s.bySeg[j]
		if len(ois) == 0 {
			continue
		}
		var rss, wsum float64
		for _, oi := range ois {
			o := s.obs[oi]
			pred := 0.0
			for _, k := range o.Segments {
				pred += x[k]
			}
			r := pred - o.Value
			rss += o.Weight * r * r
			wsum += o.Weight
		}
		if wsum > 0 && len(ois) > 1 {
			res.SEM[j] = math.Sqrt(rss/wsum) / math.Sqrt(float64(len(ois)))
		} else {
			// One observation gives no residual information; report the
			// estimate itself as the uncertainty so downstream confidence
			// intervals stay wide.
			res.SEM[j] = x[j]
		}
	}
	return res
}

// PredictPath sums segment estimates over a path and propagates SEM in
// quadrature. It returns ok=false if any segment is uncovered.
func (r *Result) PredictPath(segments []int) (value, sem float64, ok bool) {
	var v, s2 float64
	for _, j := range segments {
		if j < 0 || j >= len(r.Estimate) || !r.Covered[j] {
			return 0, 0, false
		}
		v += r.Estimate[j]
		s2 += r.SEM[j] * r.SEM[j]
	}
	return v, math.Sqrt(s2), true
}
