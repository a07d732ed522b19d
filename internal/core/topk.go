package core

import (
	"repro/internal/netsim"
	"repro/internal/quality"
)

// Candidate pairs a relaying option with its prediction.
type Candidate struct {
	Option netsim.Option
	Pred   Prediction
}

// topKInPlace implements Algorithm 2: the adaptive, confidence-interval-
// based pruning of the candidate set. It returns the minimal set of options
// such that the 95% lower confidence bound of every excluded option exceeds
// the 95% upper confidence bound of every included option — i.e. we are
// statistically confident every excluded option is worse than every
// included one. Candidates without predictions must be filtered by the
// caller.
//
// The set is computed as a fixpoint: start from the option with the
// smallest upper bound (it can never be excluded), then repeatedly pull in
// any option whose lower bound does not clear the included set's maximum
// upper bound.
//
// It works over caller-owned storage: cands is sorted and
// compacted in place (the returned slice aliases it), and incl is a
// reusable inclusion-scratch whose grown form is returned for the caller
// to keep. The hot path (Via's per-epoch prune) passes per-strategy
// scratch through here so pruning allocates nothing at steady state.
func topKInPlace(cands []Candidate, m quality.Metric, incl []bool) ([]Candidate, []bool) {
	if len(cands) == 0 {
		return nil, incl
	}
	sortCandidates(cands, func(a, b *Candidate) bool {
		ua, ub := a.Pred.Upper(m), b.Pred.Upper(m)
		if ua != ub {
			return ua < ub
		}
		return optionLess(a.Option, b.Option)
	})

	// The option with the smallest upper bound can never satisfy the
	// exclusion condition (its lower bound cannot exceed its own upper
	// bound), so it seeds the set. Then iterate to a fixpoint: any excluded
	// option whose lower bound fails to clear the included set's maximum
	// upper bound must be pulled in, which may in turn raise that maximum.
	if cap(incl) < len(cands) {
		incl = make([]bool, len(cands))
	}
	incl = incl[:len(cands)]
	for i := range incl {
		incl[i] = false
	}
	incl[0] = true
	maxUpper := cands[0].Pred.Upper(m)
	for changed := true; changed; {
		changed = false
		for i := 1; i < len(cands); i++ {
			if incl[i] || cands[i].Pred.Lower(m) > maxUpper {
				continue
			}
			incl[i] = true
			changed = true
			if u := cands[i].Pred.Upper(m); u > maxUpper {
				maxUpper = u
			}
		}
	}
	out := cands[:0]
	for i, inc := range incl {
		if inc {
			out = append(out, cands[i])
		}
	}
	return out, incl
}

// sortCandidates is an allocation-free insertion sort. Candidate sets are
// the relays offered for one pair — tens at most — where insertion sort
// beats sort.Slice outright and, unlike it, neither boxes an interface
// nor heap-allocates a closure.
func sortCandidates(cands []Candidate, less func(a, b *Candidate) bool) {
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && less(&cands[j], &cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}

// fixedTopKInPlace is the ablation of Figure 15: keep exactly k options
// ranked by predicted mean, ignoring the confidence intervals. It sorts
// cands, which the caller owns, in place.
func fixedTopKInPlace(cands []Candidate, m quality.Metric, k int) []Candidate {
	if len(cands) == 0 || k <= 0 {
		return nil
	}
	sortCandidates(cands, func(a, b *Candidate) bool {
		ma, mb := a.Pred.Mean[m], b.Pred.Mean[m]
		if ma != mb {
			return ma < mb
		}
		return optionLess(a.Option, b.Option)
	})
	if k > len(cands) {
		k = len(cands)
	}
	return cands[:k]
}

func optionLess(a, b netsim.Option) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.R1 != b.R1 {
		return a.R1 < b.R1
	}
	return a.R2 < b.R2
}
