// Package coords implements Vivaldi network coordinates (Dabek et al.,
// SIGCOMM 2004) with the height model — the decentralized
// coordinate-embedding alternative to tomography that the paper's related
// work discusses (§6, "Internet performance prediction"). Nodes embed into
// a low-dimensional Euclidean space plus a height (modeling the access
// link); predicted RTT between two nodes is the coordinate distance.
//
// The repository uses it as a coverage-extension baseline for direct-path
// RTT prediction: trained on observed pairs, it predicts pairs never seen
// — something per-pair history fundamentally cannot do — and the "coords"
// experiment quantifies its accuracy against the ground truth.
package coords

import (
	"math"
	"sync"

	"repro/internal/stats"
)

// Config tunes the Vivaldi update rule.
type Config struct {
	// Dim is the Euclidean dimensionality (Vivaldi's evaluation used 2-5).
	Dim int
	// CC and CE are the coordinate and error tuning constants (the paper
	// recommends 0.25 each).
	CC, CE float64
	// MinHeight keeps heights positive (access links always cost > 0).
	MinHeight float64
}

// DefaultConfig returns the Vivaldi paper's recommended constants with a
// 3-dimensional space.
func DefaultConfig() Config {
	return Config{Dim: 3, CC: 0.25, CE: 0.25, MinHeight: 0.1}
}

type node struct {
	vec    []float64
	height float64
	err    float64 // relative error estimate in [0, 1+]
	n      int64
}

// System embeds nodes identified by int32 ids. Safe for concurrent use.
type System struct {
	cfg Config

	mu    sync.Mutex
	nodes map[int32]*node
	rng   *stats.RNG
}

// New creates an empty coordinate system.
func New(cfg Config, seed uint64) *System {
	if cfg.Dim <= 0 {
		cfg.Dim = 3
	}
	if cfg.CC <= 0 {
		cfg.CC = 0.25
	}
	if cfg.CE <= 0 {
		cfg.CE = 0.25
	}
	if cfg.MinHeight <= 0 {
		cfg.MinHeight = 0.1
	}
	return &System{
		cfg:   cfg,
		nodes: make(map[int32]*node),
		rng:   stats.NewRNG(seed).Split("vivaldi"),
	}
}

func (s *System) get(id int32) *node {
	nd := s.nodes[id]
	if nd == nil {
		// Start at a tiny random offset so co-located nodes can separate.
		vec := make([]float64, s.cfg.Dim)
		for i := range vec {
			vec[i] = s.rng.Normal(0, 0.01)
		}
		nd = &node{vec: vec, height: s.cfg.MinHeight, err: 1}
		s.nodes[id] = nd
	}
	return nd
}

// distance is the height-model distance between two nodes.
func distance(a, b *node) float64 {
	var sum float64
	for i := range a.vec {
		d := a.vec[i] - b.vec[i]
		sum += d * d
	}
	return math.Sqrt(sum) + a.height + b.height
}

// Observe feeds one RTT measurement (milliseconds) between nodes a and b,
// updating both ends symmetrically (we play both sides of the exchange).
func (s *System) Observe(a, b int32, rttMs float64) {
	if rttMs <= 0 || a == b || math.IsNaN(rttMs) || math.IsInf(rttMs, 0) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	na, nb := s.get(a), s.get(b)
	s.updateOne(na, nb, rttMs)
	s.updateOne(nb, na, rttMs)
	na.n++
	nb.n++
}

// updateOne applies the Vivaldi force update to `self` against `other`.
func (s *System) updateOne(self, other *node, rtt float64) {
	dist := distance(self, other)

	// Sample weight balances local vs remote confidence.
	w := self.err / (self.err + other.err)

	// Update the relative error EWMA.
	es := math.Abs(dist-rtt) / rtt
	self.err = es*s.cfg.CE*w + self.err*(1-s.cfg.CE*w)
	if self.err > 2 {
		self.err = 2
	}

	// Move along the error gradient.
	delta := s.cfg.CC * w
	force := delta * (rtt - dist)

	// Unit vector from other to self; random direction when coincident.
	dir := make([]float64, len(self.vec))
	var norm float64
	for i := range dir {
		dir[i] = self.vec[i] - other.vec[i]
		norm += dir[i] * dir[i]
	}
	norm = math.Sqrt(norm)
	if norm < 1e-9 {
		for i := range dir {
			dir[i] = s.rng.Normal(0, 1)
		}
		norm = 0
		for _, v := range dir {
			norm += v * v
		}
		norm = math.Sqrt(norm)
	}
	for i := range dir {
		self.vec[i] += force * dir[i] / norm
	}
	// Height absorbs the non-Euclidean (access) component.
	self.height += force * 0.5
	if self.height < s.cfg.MinHeight {
		self.height = s.cfg.MinHeight
	}
}

// PredictRTT returns the coordinate-distance RTT estimate between two
// nodes, and whether both have been embedded (observed at least once).
func (s *System) PredictRTT(a, b int32) (float64, bool) {
	if a == b {
		return 0, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	na, okA := s.nodes[a]
	nb, okB := s.nodes[b]
	if !okA || !okB || na.n == 0 || nb.n == 0 {
		return 0, false
	}
	return distance(na, nb), true
}
