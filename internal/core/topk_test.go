package core

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/stats"
)

func cand(opt netsim.Option, mean, sem float64) Candidate {
	var p Prediction
	p.Mean[quality.RTT] = mean
	p.SEM[quality.RTT] = sem
	p.N = 10
	return Candidate{Option: opt, Pred: p}
}

func TestPredictionBounds(t *testing.T) {
	p := Prediction{}
	p.Mean[quality.RTT] = 100
	p.SEM[quality.RTT] = 10
	if lo := p.Lower(quality.RTT); lo != 100-19.6 {
		t.Errorf("Lower = %v", lo)
	}
	if up := p.Upper(quality.RTT); up != 100+19.6 {
		t.Errorf("Upper = %v", up)
	}
	p.Mean[quality.RTT] = 5
	p.SEM[quality.RTT] = 10
	if lo := p.Lower(quality.RTT); lo != 0 {
		t.Errorf("Lower should clamp at 0, got %v", lo)
	}
}

func TestTopKWellSeparated(t *testing.T) {
	// Three clearly separated options: only the best survives.
	cands := []Candidate{
		cand(netsim.BounceOption(1), 100, 2),
		cand(netsim.BounceOption(2), 200, 2),
		cand(netsim.BounceOption(3), 300, 2),
	}
	got := topK(cands, quality.RTT)
	if len(got) != 1 || got[0].Option != netsim.BounceOption(1) {
		t.Errorf("topK = %v", got)
	}
}

func TestTopKOverlapping(t *testing.T) {
	// Two overlapping, one clearly worse: top-2.
	cands := []Candidate{
		cand(netsim.BounceOption(1), 100, 10), // CI ~ [80, 120]
		cand(netsim.BounceOption(2), 110, 10), // CI ~ [90, 130] overlaps
		cand(netsim.BounceOption(3), 500, 5),  // far away
	}
	got := topK(cands, quality.RTT)
	if len(got) != 2 {
		t.Fatalf("topK size = %d, want 2 (%v)", len(got), got)
	}
	for _, c := range got {
		if c.Option == netsim.BounceOption(3) {
			t.Error("clearly-worse option included")
		}
	}
}

func TestTopKChainOverlap(t *testing.T) {
	// A overlaps B, B overlaps C, A does not overlap C directly — the
	// fixpoint must still pull in C because B's upper bound exceeds C's
	// lower bound.
	cands := []Candidate{
		cand(netsim.BounceOption(1), 100, 5), // [90.2, 109.8]
		cand(netsim.BounceOption(2), 112, 8), // [96.3, 127.7]
		cand(netsim.BounceOption(3), 125, 2), // [121.1, 128.9] — lower < B.upper
		cand(netsim.BounceOption(4), 300, 2), // clearly out
	}
	got := topK(cands, quality.RTT)
	if len(got) != 3 {
		t.Fatalf("topK size = %d, want 3: %v", len(got), got)
	}
}

func TestTopKAllIdentical(t *testing.T) {
	cands := []Candidate{
		cand(netsim.BounceOption(1), 100, 10),
		cand(netsim.BounceOption(2), 100, 10),
		cand(netsim.BounceOption(3), 100, 10),
	}
	if got := topK(cands, quality.RTT); len(got) != 3 {
		t.Errorf("identical candidates should all survive, got %d", len(got))
	}
}

func TestTopKEmpty(t *testing.T) {
	if topK(nil, quality.RTT) != nil {
		t.Error("empty input should give nil")
	}
}

func TestTopKDoesNotModifyInput(t *testing.T) {
	cands := []Candidate{
		cand(netsim.BounceOption(3), 300, 1),
		cand(netsim.BounceOption(1), 100, 1),
	}
	_ = topK(cands, quality.RTT)
	if cands[0].Option != netsim.BounceOption(3) {
		t.Error("topK reordered the caller's slice")
	}
}

// Property: the Algorithm 2 invariant holds on the output — every excluded
// option's lower bound exceeds every included option's upper bound — and
// the globally-best option (minimum mean) is always included.
func TestTopKInvariantProperty(t *testing.T) {
	rng := stats.NewRNG(7)
	f := func(seed uint32) bool {
		r := rng.SplitN("case", uint64(seed))
		n := 2 + r.IntN(15)
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i] = cand(netsim.BounceOption(netsim.RelayID(i)), 50+400*r.Float64(), 1+30*r.Float64())
		}
		got := topK(cands, quality.RTT)
		if len(got) == 0 {
			return false
		}
		in := map[netsim.Option]bool{}
		maxUpper := 0.0
		for _, c := range got {
			in[c.Option] = true
			if u := c.Pred.Upper(quality.RTT); u > maxUpper {
				maxUpper = u
			}
		}
		bestMean := cands[0]
		for _, c := range cands {
			if c.Pred.Mean[quality.RTT] < bestMean.Pred.Mean[quality.RTT] {
				bestMean = c
			}
			if !in[c.Option] && c.Pred.Lower(quality.RTT) <= maxUpper {
				return false // exclusion condition violated
			}
		}
		return in[bestMean.Option]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFixedTopK(t *testing.T) {
	cands := []Candidate{
		cand(netsim.BounceOption(2), 200, 50),
		cand(netsim.BounceOption(1), 100, 50),
		cand(netsim.BounceOption(3), 300, 50),
	}
	got := fixedTopKInPlace(slices.Clone(cands), quality.RTT, 2)
	if len(got) != 2 {
		t.Fatalf("size = %d", len(got))
	}
	if got[0].Option != netsim.BounceOption(1) || got[1].Option != netsim.BounceOption(2) {
		t.Errorf("fixedTopKInPlace = %v", got)
	}
	if got := fixedTopKInPlace(slices.Clone(cands), quality.RTT, 10); len(got) != 3 {
		t.Error("oversized k should clamp")
	}
	if fixedTopKInPlace(slices.Clone(cands), quality.RTT, 0) != nil {
		t.Error("k=0 should give nil")
	}
}

// topK runs Algorithm 2 (topKInPlace) over a copy of cands.
func topK(cands []Candidate, m quality.Metric) []Candidate {
	out, _ := topKInPlace(slices.Clone(cands), m, nil)
	return out
}
