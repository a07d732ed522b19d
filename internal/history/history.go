// Package history is the controller's call-history store: per 24-hour
// window, per canonical AS pair and relaying option, it keeps streaming
// aggregates (count, mean, variance → SEM) of each network metric plus
// poor-call counters. It is the data source for Via's predictor (§4.4) and
// for the spatial/temporal analyses of §2.3-§2.4 (worst-pair contribution,
// persistence, prevalence).
package history

import (
	"sort"
	"sync"

	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/stats"
)

// PairKey identifies a canonical (unordered) AS pair.
type PairKey struct {
	A, B netsim.ASID // A <= B
}

// MakePairKey canonicalizes a directed pair.
func MakePairKey(src, dst netsim.ASID) PairKey {
	if src > dst {
		src, dst = dst, src
	}
	return PairKey{src, dst}
}

// Agg is the per-(pair, option, window) aggregate.
type Agg struct {
	Metrics [quality.NumMetrics]stats.Welford
	PNR     quality.PNR
}

// Add folds one call's average metrics into the aggregate.
func (a *Agg) Add(m quality.Metrics) {
	for _, met := range quality.AllMetrics() {
		a.Metrics[met].Add(m.Get(met))
	}
	a.PNR.Add(m)
}

// N returns the sample count.
func (a *Agg) N() int64 { return a.PNR.Total }

type optKey struct {
	pair PairKey
	opt  netsim.Option
}

type windowData struct {
	byOpt map[optKey]*Agg
}

// Store accumulates call observations. It is safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	windows map[int]*windowData
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{windows: make(map[int]*windowData)}
}

// Add records one call's measured performance.
func (s *Store) Add(src, dst netsim.ASID, opt netsim.Option, window int, m quality.Metrics) {
	cs, cd, copt := netsim.CanonicalPair(src, dst, opt)
	k := optKey{PairKey{cs, cd}, copt}
	s.mu.Lock()
	wd := s.windows[window]
	if wd == nil {
		wd = &windowData{byOpt: make(map[optKey]*Agg)}
		s.windows[window] = wd
	}
	a := wd.byOpt[k]
	if a == nil {
		a = &Agg{}
		wd.byOpt[k] = a
	}
	a.Add(m)
	s.mu.Unlock()
}

// Get returns a copy of the aggregate for (src, dst, opt) in a window.
func (s *Store) Get(src, dst netsim.ASID, opt netsim.Option, window int) (Agg, bool) {
	cs, cd, copt := netsim.CanonicalPair(src, dst, opt)
	k := optKey{PairKey{cs, cd}, copt}
	s.mu.RLock()
	defer s.mu.RUnlock()
	wd := s.windows[window]
	if wd == nil {
		return Agg{}, false
	}
	a := wd.byOpt[k]
	if a == nil {
		return Agg{}, false
	}
	return *a, true
}

// options returns the relaying options observed for (src, dst) in a window,
// oriented for the src→dst direction, together with sample counts.
func (s *Store) options(src, dst netsim.ASID, window int) []OptionCount {
	pair := MakePairKey(src, dst)
	flip := src > dst
	s.mu.RLock()
	defer s.mu.RUnlock()
	wd := s.windows[window]
	if wd == nil {
		return nil
	}
	var out []OptionCount
	for k, a := range wd.byOpt {
		if k.pair != pair {
			continue
		}
		opt := k.opt
		if flip && opt.Kind == netsim.Transit {
			opt.R1, opt.R2 = opt.R2, opt.R1
		}
		out = append(out, OptionCount{Option: opt, N: a.N()})
	}
	sort.Slice(out, func(i, j int) bool { return optionLess(out[i].Option, out[j].Option) })
	return out
}

// OptionCount pairs a relaying option with its observed sample count.
type OptionCount struct {
	Option netsim.Option
	N      int64
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

// EachOpt visits every (pair, option, aggregate) in a window, in a
// deterministic (sorted) order — downstream consumers like the tomography
// solver are order-sensitive, and experiments must be reproducible. The
// aggregate pointer is live; callers must not retain or mutate it.
func (s *Store) EachOpt(window int, fn func(PairKey, netsim.Option, *Agg)) {
	s.mu.RLock()
	wd := s.windows[window]
	if wd == nil {
		s.mu.RUnlock()
		return
	}
	// Copy keys so fn can call back into the store without deadlocking.
	keys := make([]optKey, 0, len(wd.byOpt))
	for k := range wd.byOpt {
		keys = append(keys, k)
	}
	aggs := make([]*Agg, len(keys))
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.pair != b.pair {
			if a.pair.A != b.pair.A {
				return a.pair.A < b.pair.A
			}
			return a.pair.B < b.pair.B
		}
		return optionLess(a.opt, b.opt)
	})
	for i, k := range keys {
		aggs[i] = wd.byOpt[k]
	}
	s.mu.RUnlock()
	for i, k := range keys {
		fn(k.pair, k.opt, aggs[i])
	}
}

// Windows returns the window indices with any data, ascending.
func (s *Store) Windows() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, 0, len(s.windows))
	for w := range s.windows {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// Drop discards a window's data (used to bound memory in long runs).
func (s *Store) Drop(window int) {
	s.mu.Lock()
	delete(s.windows, window)
	s.mu.Unlock()
}
