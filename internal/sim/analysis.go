package sim

import (
	"sort"

	"repro/internal/history"
	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/trace"
)

// BestOptionPersistence computes, for each eligible AS pair, the median
// number of consecutive windows during which the oracle's best relaying
// option stays the same (Figure 9). The returned slice has one entry per
// pair with at least two eligible windows.
func BestOptionPersistence(w *netsim.World, recs []trace.CallRecord, r *Runner, m quality.Metric) []float64 {
	r.ensurePrepared(recs)
	var out []float64
	for pk, windows := range r.pairWindows {
		if len(windows) < 2 {
			continue
		}
		cands := w.Options(pk.A, pk.B)
		var runs []float64
		run := 1
		prev, _ := w.BestOption(pk.A, pk.B, cands, windows[0], m)
		for i := 1; i < len(windows); i++ {
			best, _ := w.BestOption(pk.A, pk.B, cands, windows[i], m)
			if best == prev && windows[i] == windows[i-1]+1 {
				run++
			} else {
				runs = append(runs, float64(run))
				run = 1
				prev = best
			}
		}
		runs = append(runs, float64(run))
		sort.Float64s(runs)
		out = append(out, runs[len(runs)/2])
	}
	sort.Float64s(out)
	return out
}

// EligiblePairs returns the pairs passing the §5.1 filters in any window.
func (r *Runner) EligiblePairs() []history.PairKey {
	out := make([]history.PairKey, 0, len(r.pairWindows))
	for pk := range r.pairWindows {
		out = append(out, pk)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
