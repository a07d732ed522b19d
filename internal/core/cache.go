package core

// The §7 client-side decision cache, rebuilt for call-floor rates.
//
// The first version (PR series "scale") guarded one map with one mutex:
// correct, but every Choose — hit or miss — serialized through a global
// lock, entries were never evicted, and a fresh measurement report could
// not invalidate a stale decision before its TTL ran out. This version is
// built around three ideas:
//
//   - Sharding: pairs hash across cacheShardCount independent shards, so
//     writers (fills, sweeps) on one shard never stall readers on another.
//
//   - Lock-free hits: each shard publishes an immutable open-addressed
//     probe table (pair → slot) through an atomic pointer. Writers mutate
//     the shard's authoritative map under its lock and republish the
//     table; topology changes stop once the pair population is seen. A
//     probe table is used instead of a Go map because the runtime map's
//     generic lookup machinery costs more than the rest of the hit path
//     combined; a ≤50%-loaded linear probe resolves in one or two cache
//     lines. A cache hit is a handful of loads and zero heap allocations —
//     enforced forever by the //via:noalloc annotation on the lookup,
//     which `make lint` verifies against the compiler's escape analysis.
//
//   - Epoch invalidation: every slot carries an epoch counter, bumped in
//     Observe once the inner strategy has applied the pair's report. A
//     decision records the epoch it was computed under; a hit requires the
//     epochs to match, so one report forces one recompute instead of
//     waiting out the TTL — the cache is at most one report stale, never a
//     TTL stale.
//
// Orientation: decisions are stored in canonical (low endpoint first)
// form and flipped on the way out, so both call directions share one
// entry and a transit route read from the reverse direction traverses the
// relays in the correct order.

import (
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/quality"
)

// cacheShardBits selects the shard from the low bits of the pair hash;
// the probe table indexes with the bits above them, so the two indices
// are decorrelated.
const cacheShardBits = 6

// cacheShardCount spreads pairs over independent shards.
const cacheShardCount = 1 << cacheShardBits

// DefaultCacheMaxPairs bounds the cache's total entry count. The old
// cache grew one entry per pair ever seen and never let go; at AS-pair
// granularity a long-lived deployment sees millions of pairs, most of
// them one-call wonders that would never be read again.
const DefaultCacheMaxPairs = 1 << 16

// cachedDecision is one immutable published decision. A new fill
// allocates a fresh one and swaps the slot pointer — readers either see
// the old complete value or the new complete value, never a torn write.
type cachedDecision struct {
	opt     netsim.Option // canonical orientation
	expires float64       // tHours
	epoch   uint64        // slot epoch the decision was computed under
}

// cacheSlot is one pair's stable cell: the slot survives refills, so
// Observe can bump the epoch without touching the shard index.
type cacheSlot struct {
	epoch atomic.Uint64
	dec   atomic.Pointer[cachedDecision]
}

type cacheSlotMap = map[groupPair]*cacheSlot

// cacheEntry is one probe cell; slot == nil marks the cell empty (and,
// since tables are at most half full, terminates every probe chain).
type cacheEntry struct {
	slot *cacheSlot
	key  groupPair
}

// cacheTable is a shard's published pair→slot index: immutable once
// stored, linear-probed, sized to at most 50% load.
type cacheTable struct {
	mask    uint64
	entries []cacheEntry
	n       int // live pairs
}

// buildCacheTable lays slots out into a fresh probe table. Map iteration
// order only permutes probe positions, never lookup results, so the
// table is deterministic where it matters.
func buildCacheTable(slots cacheSlotMap) *cacheTable {
	size := 8
	for size < 2*len(slots) {
		size *= 2
	}
	t := &cacheTable{mask: uint64(size - 1), entries: make([]cacheEntry, size), n: len(slots)}
	for k, v := range slots {
		i := (cacheHash(k) >> cacheShardBits) & t.mask
		for t.entries[i].slot != nil {
			i = (i + 1) & t.mask
		}
		t.entries[i] = cacheEntry{slot: v, key: k}
	}
	return t
}

// get resolves a pair's slot, nil if absent. Not the hit path — lookup
// inlines its own probe loop so the whole hit stays one frame.
func (t *cacheTable) get(gp groupPair, h uint64) *cacheSlot {
	i := (h >> cacheShardBits) & t.mask
	for {
		e := &t.entries[i]
		if e.slot == nil {
			return nil
		}
		if e.key == gp {
			return e.slot
		}
		i = (i + 1) & t.mask
	}
}

// cacheShard is one lock-free-read partition of the cache.
type cacheShard struct {
	// table is the shard's published pair→slot index. Mutations (new
	// pair, eviction, sweep) update slots under mu and republish;
	// readers load the table wait-free and never see slots.
	table atomic.Pointer[cacheTable]
	mu    sync.Mutex
	slots cacheSlotMap // authoritative; guarded by mu

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

// Cached wraps a strategy with the decision cache: a pair's choice is
// reused until its TTL expires or a report for the pair invalidates it.
// Observations always pass through to the inner strategy.
type Cached struct {
	inner    Strategy
	ttlHours float64
	perShard int // max slots per shard (bounded memory)
	shards   [cacheShardCount]cacheShard
}

// NewCached wraps inner with a decision cache of the given TTL (hours)
// and the default size bound.
func NewCached(inner Strategy, ttlHours float64) *Cached {
	return NewCachedBounded(inner, ttlHours, DefaultCacheMaxPairs)
}

// NewCachedBounded is NewCached with an explicit bound on the total
// number of cached pairs. When a shard is full, expired entries are swept
// first and the entry with the nearest expiry is evicted if needed.
func NewCachedBounded(inner Strategy, ttlHours float64, maxPairs int) *Cached {
	if ttlHours <= 0 {
		ttlHours = 1
	}
	if maxPairs < cacheShardCount {
		maxPairs = cacheShardCount
	}
	return &Cached{
		inner:    inner,
		ttlHours: ttlHours,
		perShard: (maxPairs + cacheShardCount - 1) / cacheShardCount,
	}
}

// Name implements Strategy.
func (c *Cached) Name() string { return c.inner.Name() + "+cache" }

// PairMix is the one hash of a group pair: the pair is ordered (min, max)
// first, so both call directions mix to the same value. The decision
// cache and ring.PairHash both start from it and apply their own
// finalizer.
func PairMix(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))*0x9e3779b97f4a7c15 ^ uint64(uint32(b))*0x2545f4914f6cdd1d
}

// cacheHash mixes a canonical pair; the low bits pick the shard, the
// rest index the shard's probe table.
func cacheHash(gp groupPair) uint64 {
	h := PairMix(gp.a, gp.b)
	return h ^ h>>33
}

// canonPair canonicalizes a call's endpoints and reports whether they
// were flipped.
func canonPair(call Call) (groupPair, bool) {
	gp := groupPair{int32(call.Src), int32(call.Dst)}
	if gp.a > gp.b {
		return groupPair{gp.b, gp.a}, true
	}
	return gp, false
}

// lookup is the cache-hit hot path: probe the published table, then a
// few atomic loads — no locks, no heap allocation (compiler-verified by
// the noalloc analyzer — keep it that way). A miss for any reason
// (unknown pair, no decision yet, expired, epoch mismatch) returns
// false.
//
//via:noalloc
func (s *cacheShard) lookup(gp groupPair, h uint64, tHours float64) (netsim.Option, bool) {
	t := s.table.Load()
	if t == nil {
		return netsim.Option{}, false
	}
	i := (h >> cacheShardBits) & t.mask
	for {
		e := &t.entries[i]
		if e.slot == nil {
			return netsim.Option{}, false
		}
		if e.key == gp {
			d := e.slot.dec.Load()
			if d == nil || tHours >= d.expires || d.epoch != e.slot.epoch.Load() {
				return netsim.Option{}, false
			}
			return d.opt, true
		}
		i = (i + 1) & t.mask
	}
}

// Choose implements Strategy: serve from the cache when the pair has a
// live, epoch-current decision; otherwise consult the inner strategy and
// publish the result.
func (c *Cached) Choose(call Call, cands []netsim.Option) netsim.Option {
	gp, flip := canonPair(call)
	h := cacheHash(gp)
	sh := &c.shards[h&(cacheShardCount-1)]
	if opt, ok := sh.lookup(gp, h, call.THours); ok {
		sh.hits.Add(1)
		if flip && opt.Kind == netsim.Transit {
			opt.R1, opt.R2 = opt.R2, opt.R1
		}
		return opt
	}
	sh.misses.Add(1)

	// The slot (and its epoch) is resolved before the inner strategy
	// runs: a report that lands while the decision is being computed
	// bumps the epoch and the fill below publishes an already-stale
	// decision, so the next Choose recomputes — the race costs one extra
	// miss, never a stale hit.
	slot := sh.ensureSlot(gp, h, c.perShard, call.THours)
	epoch := slot.epoch.Load()
	opt := c.inner.Choose(call, cands)
	canon := canonOpt(int32(call.Src), int32(call.Dst), opt)
	slot.dec.Store(&cachedDecision{opt: canon, expires: call.THours + c.ttlHours, epoch: epoch})
	return opt
}

// ensureSlot returns the pair's slot, building it under the shard writer
// lock and evicting first if the shard is at its bound.
func (s *cacheShard) ensureSlot(gp groupPair, h uint64, perShard int, nowHours float64) *cacheSlot {
	if t := s.table.Load(); t != nil {
		if slot := t.get(gp, h); slot != nil {
			return slot
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot := s.slots[gp]; slot != nil {
		return slot
	}
	if s.slots == nil {
		s.slots = make(cacheSlotMap)
	}
	if len(s.slots) >= perShard {
		s.evictDownLocked(perShard-1, nowHours)
	}
	slot := &cacheSlot{}
	s.slots[gp] = slot
	s.table.Store(buildCacheTable(s.slots))
	return slot
}

// evictDownLocked shrinks the shard to at most target entries: expired
// decisions go unconditionally, then nearest-expiry entries (ties broken
// by pair order, never map iteration order, so a deterministic call
// sequence evicts deterministically). Caller holds s.mu and republishes
// the table.
func (s *cacheShard) evictDownLocked(target int, nowHours float64) {
	next := s.slots
	for k, v := range next {
		if d := v.dec.Load(); d != nil && nowHours >= d.expires {
			delete(next, k)
			s.evictions.Add(1)
		}
	}
	for len(next) > target {
		var victim groupPair
		victimExp := 0.0
		found := false
		for k, v := range next {
			exp := 0.0 // slots with no published decision evict first
			if d := v.dec.Load(); d != nil {
				exp = d.expires
			}
			if !found || exp < victimExp ||
				(exp == victimExp && (k.a < victim.a || (k.a == victim.a && k.b < victim.b))) {
				victim, victimExp, found = k, exp, true
			}
		}
		if !found {
			return
		}
		delete(next, victim)
		s.evictions.Add(1)
	}
}

// Observe implements Strategy: the report passes through to the inner
// strategy, then the pair's epoch is bumped so the next Choose recomputes
// against the new measurement. Pairs with no cached decision are
// untouched (nothing to invalidate).
func (c *Cached) Observe(call Call, opt netsim.Option, m quality.Metrics) {
	c.inner.Observe(call, opt, m)
	gp, _ := canonPair(call)
	h := cacheHash(gp)
	sh := &c.shards[h&(cacheShardCount-1)]
	t := sh.table.Load()
	if t == nil {
		return
	}
	slot := t.get(gp, h)
	if slot == nil {
		return
	}
	slot.epoch.Add(1)
	sh.invalidations.Add(1)
}

// Sweep drops entries whose decision has expired as of nowHours, and
// enforces the size bound. Call it periodically on long-lived processes;
// fills also enforce the bound, so skipping it costs memory precision,
// not correctness.
func (c *Cached) Sweep(nowHours float64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if len(sh.slots) > 0 {
			sh.evictDownLocked(c.perShard, nowHours)
			sh.table.Store(buildCacheTable(sh.slots))
		}
		sh.mu.Unlock()
	}
}

// Len reports the number of cached pairs across all shards.
func (c *Cached) Len() int {
	n := 0
	for i := range c.shards {
		if t := c.shards[i].table.Load(); t != nil {
			n += t.n
		}
	}
	return n
}

// Hits reports cumulative cache hits.
func (c *Cached) Hits() int64 { return c.sum(func(s *cacheShard) int64 { return s.hits.Load() }) }

// Misses reports cumulative cache misses.
func (c *Cached) Misses() int64 { return c.sum(func(s *cacheShard) int64 { return s.misses.Load() }) }

// Evictions reports cumulative evictions (bound enforcement + sweeps).
func (c *Cached) Evictions() int64 {
	return c.sum(func(s *cacheShard) int64 { return s.evictions.Load() })
}

// Invalidations reports cumulative epoch bumps from applied reports.
func (c *Cached) Invalidations() int64 {
	return c.sum(func(s *cacheShard) int64 { return s.invalidations.Load() })
}

func (c *Cached) sum(f func(*cacheShard) int64) int64 {
	var n int64
	for i := range c.shards {
		n += f(&c.shards[i])
	}
	return n
}

// HitRate reports the fraction of decisions served from the cache — the
// controller-load reduction of §7.
func (c *Cached) HitRate() float64 {
	h, m := c.Hits(), c.Misses()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
