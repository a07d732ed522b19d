package history

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/stats"
)

// Persistence lets a controller survive restarts without losing its learned
// history (§7: the control platform is long-lived state). The format is a
// versioned gob stream of flattened aggregate records.

const snapshotVersion = 1

// snapshotHeader leads the stream.
type snapshotHeader struct {
	Version int
	Entries int
}

// snapshotEntry is one (window, pair, option) aggregate in exported form.
type snapshotEntry struct {
	Window  int
	A, B    netsim.ASID
	Opt     netsim.Option
	Metrics [quality.NumMetrics]stats.Welford
	PNR     quality.PNR
}

// Capture is a point-in-time copy of a Store's contents, written out by
// Encode. It shares nothing with the store, so Encode may run while the
// store keeps changing.
type Capture struct {
	entries []snapshotEntry // unordered; Encode sorts
}

// Capture copies every aggregate under one read lock. The copy is all a
// caller that orders updates against the capture needs to hold its lock
// for; ordering the entries is Encode's work.
func (s *Store) Capture() Capture {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, wd := range s.windows {
		n += len(wd.byOpt)
	}
	entries := make([]snapshotEntry, n)
	i := 0
	for win, wd := range s.windows {
		for k, a := range wd.byOpt {
			e := &entries[i] // filled in place: no temporary to copy
			e.Window, e.A, e.B, e.Opt = win, k.pair.A, k.pair.B, k.opt
			e.Metrics, e.PNR = a.Metrics, a.PNR
			i++
		}
	}
	return Capture{entries: entries}
}

// Encode writes the captured contents: a header, then the entries
// ascending by window and in EachOpt's (pair, option) order within one,
// so the bytes are a pure function of the contents.
func (c Capture) Encode(w io.Writer) error {
	sort.Slice(c.entries, func(i, j int) bool {
		a, b := &c.entries[i], &c.entries[j]
		switch {
		case a.Window != b.Window:
			return a.Window < b.Window
		case a.A != b.A:
			return a.A < b.A
		case a.B != b.B:
			return a.B < b.B
		}
		return optionLess(a.Opt, b.Opt)
	})
	enc := gob.NewEncoder(w)
	if err := enc.Encode(snapshotHeader{Version: snapshotVersion, Entries: len(c.entries)}); err != nil {
		return fmt.Errorf("history: encode header: %w", err)
	}
	for i := range c.entries {
		if err := enc.Encode(&c.entries[i]); err != nil {
			return fmt.Errorf("history: encode entry %d: %w", i, err)
		}
	}
	return nil
}

// Load reads a snapshot produced by Capture.Encode, merging it into the store
// (normally called on an empty store at startup).
func (s *Store) Load(r io.Reader) error {
	dec := gob.NewDecoder(r)
	var h snapshotHeader
	if err := dec.Decode(&h); err != nil {
		return fmt.Errorf("history: decode header: %w", err)
	}
	if h.Version != snapshotVersion {
		return fmt.Errorf("history: snapshot version %d, want %d", h.Version, snapshotVersion)
	}
	for i := 0; i < h.Entries; i++ {
		var e snapshotEntry
		if err := dec.Decode(&e); err != nil {
			return fmt.Errorf("history: decode entry %d: %w", i, err)
		}
		s.merge(e)
	}
	return nil
}

// merge folds one snapshot entry into the live maps.
func (s *Store) merge(e snapshotEntry) {
	cs, cd, copt := netsim.CanonicalPair(e.A, e.B, e.Opt)
	k := optKey{PairKey{cs, cd}, copt}
	s.mu.Lock()
	defer s.mu.Unlock()
	wd := s.windows[e.Window]
	if wd == nil {
		wd = &windowData{byOpt: make(map[optKey]*Agg)}
		s.windows[e.Window] = wd
	}
	a := wd.byOpt[k]
	if a == nil {
		a = &Agg{}
		wd.byOpt[k] = a
	}
	for _, m := range quality.AllMetrics() {
		a.Metrics[m].Merge(e.Metrics[m])
	}
	a.PNR.Merge(e.PNR)
}
