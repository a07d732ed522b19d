package coords

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// syntheticMetric places n nodes on a plane with per-node access heights
// and returns the ground-truth RTT function.
func syntheticMetric(n int, seed uint64) ([][2]float64, []float64, func(i, j int) float64) {
	r := stats.NewRNG(seed)
	pos := make([][2]float64, n)
	height := make([]float64, n)
	for i := range pos {
		pos[i] = [2]float64{200 * r.Float64(), 200 * r.Float64()}
		height[i] = 2 + 10*r.Float64()
	}
	rtt := func(i, j int) float64 {
		dx := pos[i][0] - pos[j][0]
		dy := pos[i][1] - pos[j][1]
		return math.Hypot(dx, dy) + height[i] + height[j]
	}
	return pos, height, rtt
}

func trainSystem(t testing.TB, n, rounds int, noise float64, seed uint64) (*System, func(i, j int) float64) {
	t.Helper()
	_, _, rtt := syntheticMetric(n, seed)
	s := New(DefaultConfig(), seed)
	r := stats.NewRNG(seed + 1)
	for round := 0; round < rounds; round++ {
		for i := 0; i < n; i++ {
			j := r.IntN(n)
			if i == j {
				continue
			}
			obs := rtt(i, j)
			if noise > 0 {
				obs *= r.LogNormal(0, noise)
			}
			s.Observe(int32(i), int32(j), obs)
		}
	}
	return s, rtt
}

func TestVivaldiConvergesOnEmbeddableMetric(t *testing.T) {
	const n = 30
	s, rtt := trainSystem(t, n, 400, 0, 1)
	var rel []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pred, ok := s.PredictRTT(int32(i), int32(j))
			if !ok {
				t.Fatalf("pair %d-%d not predictable", i, j)
			}
			truth := rtt(i, j)
			rel = append(rel, math.Abs(pred-truth)/truth)
		}
	}
	med := stats.Quantile(rel, 0.5)
	if med > 0.15 {
		t.Errorf("median relative error %v after convergence; want < 0.15", med)
	}
}

func TestVivaldiToleratesNoise(t *testing.T) {
	const n = 30
	s, rtt := trainSystem(t, n, 600, 0.15, 2)
	var rel []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pred, _ := s.PredictRTT(int32(i), int32(j))
			truth := rtt(i, j)
			rel = append(rel, math.Abs(pred-truth)/truth)
		}
	}
	if med := stats.Quantile(rel, 0.5); med > 0.30 {
		t.Errorf("median relative error %v with 15%% noise", med)
	}
}

func TestVivaldiPredictsUnseenPairs(t *testing.T) {
	// Train only on pairs (i, i+1) and (i, i+2) — a sparse ring — and
	// predict long-range pairs never observed.
	const n = 20
	_, _, rtt := syntheticMetric(n, 3)
	s := New(DefaultConfig(), 3)
	for round := 0; round < 800; round++ {
		for i := 0; i < n; i++ {
			s.Observe(int32(i), int32((i+1)%n), rtt(i, (i+1)%n))
			s.Observe(int32(i), int32((i+2)%n), rtt(i, (i+2)%n))
		}
	}
	var rel []float64
	for i := 0; i < n; i++ {
		j := (i + n/2) % n // farthest, never observed
		pred, ok := s.PredictRTT(int32(i), int32(j))
		if !ok {
			t.Fatal("unseen pair not predictable despite both nodes embedded")
		}
		rel = append(rel, math.Abs(pred-rtt(i, j))/rtt(i, j))
	}
	if med := stats.Quantile(rel, 0.5); med > 0.5 {
		t.Errorf("median unseen-pair error %v; embedding did not generalize", med)
	}
}

func TestVivaldiBasics(t *testing.T) {
	s := New(DefaultConfig(), 1)
	if _, ok := s.PredictRTT(1, 2); ok {
		t.Error("unknown nodes should not predict")
	}
	if v, ok := s.PredictRTT(5, 5); !ok || v != 0 {
		t.Error("self RTT should be 0")
	}
	s.Observe(1, 2, 50)
	if len(s.nodes) != 2 {
		t.Errorf("nodes = %d", len(s.nodes))
	}
	if _, ok := s.PredictRTT(1, 2); !ok {
		t.Error("observed pair should predict")
	}
	if e := s.errorEstimate(1); e <= 0 || e > 2 {
		t.Errorf("error estimate %v", e)
	}
	if e := s.errorEstimate(99); e != 1 {
		t.Errorf("unknown node error %v, want 1", e)
	}
}

func TestVivaldiIgnoresGarbage(t *testing.T) {
	s := New(DefaultConfig(), 1)
	s.Observe(1, 1, 50)          // self
	s.Observe(1, 2, -5)          // negative
	s.Observe(1, 2, math.NaN())  // NaN
	s.Observe(1, 2, math.Inf(1)) // Inf
	if len(s.nodes) != 0 {
		t.Errorf("garbage observations created %d nodes", len(s.nodes))
	}
}

func TestVivaldiHeightsStayPositive(t *testing.T) {
	s := New(DefaultConfig(), 4)
	r := stats.NewRNG(9)
	for i := 0; i < 2000; i++ {
		s.Observe(int32(r.IntN(10)), int32(r.IntN(10)), 1+200*r.Float64())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, nd := range s.nodes {
		if nd.height < s.cfg.MinHeight {
			t.Errorf("node %d height %v below floor", id, nd.height)
		}
		for _, v := range nd.vec {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("node %d has invalid coordinate", id)
			}
		}
	}
}

func BenchmarkVivaldiObserve(b *testing.B) {
	s := New(DefaultConfig(), 1)
	r := stats.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(int32(r.IntN(200)), int32(r.IntN(200)), 10+300*r.Float64())
	}
}

// errorEstimate returns a node's current relative-error EWMA, or 1 if the
// node is unknown.
func (s *System) errorEstimate(id int32) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if nd, ok := s.nodes[id]; ok {
		return nd.err
	}
	return 1
}
