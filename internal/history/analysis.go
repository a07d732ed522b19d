package history

import (
	"sort"

	"repro/internal/quality"
)

// The analyses in this file reproduce §2.3 (spatial patterns: how
// concentrated poor performance is across AS pairs) and §2.4 (temporal
// patterns: persistence and prevalence of high-PNR AS pairs).

// PairWindowPNR extracts, for each canonical pair and window, the PNR of
// calls over the given option kind filter (pass nil to accept all options).
type PairWindowPNR struct {
	// ByPair[pair][window] holds the PNR accumulator.
	ByPair map[PairKey]map[int]*quality.PNR
	// Overall[window] aggregates all pairs.
	Overall map[int]*quality.PNR
}

// WorstPairContribution ranks pairs by their total number of poor calls (on
// the at-least-one-bad criterion) and returns the cumulative fraction of all
// poor calls contributed by the worst `ranks[i]` pairs — Figure 5.
func (p *PairWindowPNR) WorstPairContribution(ranks []int) []float64 {
	type pairBad struct {
		bad int64
	}
	var totalBad int64
	bads := make([]int64, 0, len(p.ByPair))
	for _, byW := range p.ByPair {
		var b int64
		for _, pnr := range byW {
			b += pnr.AnyuB
		}
		bads = append(bads, b)
		totalBad += b
	}
	sort.Slice(bads, func(i, j int) bool { return bads[i] > bads[j] })
	out := make([]float64, len(ranks))
	for i, n := range ranks {
		if n > len(bads) {
			n = len(bads)
		}
		var cum int64
		for k := 0; k < n; k++ {
			cum += bads[k]
		}
		if totalBad > 0 {
			out[i] = float64(cum) / float64(totalBad)
		}
	}
	return out
}

// HighPNRStats holds the per-pair persistence and prevalence of high-PNR
// status across windows (Fig. 6). A pair is high-PNR in a window when its
// PNR is at least `factor` times the overall PNR of that window (the paper
// uses 1.5, i.e. "at least 50% higher").
type HighPNRStats struct {
	Persistence []float64 // per pair: median consecutive high-PNR run, days
	Prevalence  []float64 // per pair: fraction of observed windows high
}

// HighPNR computes persistence and prevalence on the given metric, counting
// only pairs observed in at least minWindows windows with at least minCalls
// calls per window.
func (p *PairWindowPNR) HighPNR(m quality.Metric, factor float64, minWindows, minCalls int) HighPNRStats {
	var out HighPNRStats
	for _, byW := range p.ByPair {
		windows := make([]int, 0, len(byW))
		for w, pnr := range byW {
			if pnr.Total >= int64(minCalls) {
				windows = append(windows, w)
			}
		}
		if len(windows) < minWindows {
			continue
		}
		sort.Ints(windows)
		high := make([]bool, len(windows))
		nHigh := 0
		for i, w := range windows {
			overall := p.Overall[w]
			if overall == nil || overall.Total == 0 {
				continue
			}
			if p.ByPair != nil {
				pairRate := byW[w].Rate(m)
				if pairRate >= factor*overall.Rate(m) && pairRate > 0 {
					high[i] = true
					nHigh++
				}
			}
		}
		if nHigh == 0 {
			continue // the paper plots only pairs that were ever high-PNR
		}
		out.Prevalence = append(out.Prevalence, float64(nHigh)/float64(len(windows)))
		out.Persistence = append(out.Persistence, medianRunLength(windows, high))
	}
	return out
}

// medianRunLength returns the median length (in consecutive days) of the
// high runs. Runs are broken by gaps in the observed windows as well as by
// non-high windows.
func medianRunLength(windows []int, high []bool) float64 {
	var runs []float64
	run := 0
	for i := range windows {
		consecutive := i > 0 && windows[i] == windows[i-1]+1
		if high[i] {
			if run > 0 && consecutive {
				run++
			} else {
				if run > 0 {
					runs = append(runs, float64(run))
				}
				run = 1
			}
		} else if run > 0 {
			runs = append(runs, float64(run))
			run = 0
		}
	}
	if run > 0 {
		runs = append(runs, float64(run))
	}
	if len(runs) == 0 {
		return 0
	}
	sort.Float64s(runs)
	return runs[len(runs)/2]
}

// AddObservation folds one direct-path call into the PNR collection.
func (p *PairWindowPNR) AddObservation(pair PairKey, window int, m quality.Metrics) {
	byW := p.ByPair[pair]
	if byW == nil {
		byW = make(map[int]*quality.PNR)
		p.ByPair[pair] = byW
	}
	pnr := byW[window]
	if pnr == nil {
		pnr = &quality.PNR{}
		byW[window] = pnr
	}
	pnr.Add(m)
	ov := p.Overall[window]
	if ov == nil {
		ov = &quality.PNR{}
		p.Overall[window] = ov
	}
	ov.Add(m)
}

// NewPairWindowPNR returns an empty collection; feed it with
// AddObservation.
func NewPairWindowPNR() *PairWindowPNR {
	return &PairWindowPNR{
		ByPair:  make(map[PairKey]map[int]*quality.PNR),
		Overall: make(map[int]*quality.PNR),
	}
}
