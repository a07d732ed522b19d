package core

import (
	"repro/internal/netsim"
	"repro/internal/quality"
)

// This file implements the §7 scalability mechanisms:
//
//   - Sharded: a C3-style split-control wrapper that partitions the pair
//     space across independent strategy instances, so a logical controller
//     can scale across cores or machines ("partitioning techniques provide
//     a good starting point").
//
// The companion mechanism — Cached, the client-side decision cache
// ("each client could cache the relaying decisions and refresh
// periodically") — lives in cache.go.

// Sharded partitions calls across shards by canonical pair hash. Each
// shard is an independent strategy instance, so there is no cross-shard
// locking — and no cross-shard learning, which is safe because all of
// Via's state is keyed by pair.
type Sharded struct {
	shards []Strategy
	name   string
}

// NewSharded builds n shards using the factory (called once per shard with
// the shard index; use it to vary seeds).
func NewSharded(n int, factory func(shard int) Strategy) *Sharded {
	if n <= 0 {
		n = 1
	}
	s := &Sharded{shards: make([]Strategy, n)}
	for i := range s.shards {
		s.shards[i] = factory(i)
	}
	s.name = "sharded-" + s.shards[0].Name()
	return s
}

// shardOf routes a pair to its shard. Both call directions must land on
// the same shard, so the hash uses the canonical pair.
func (s *Sharded) shardOf(a, b netsim.ASID) int {
	h := PairMix(int32(a), int32(b))
	h ^= h >> 33
	return int(h % uint64(len(s.shards)))
}

// Name implements Strategy.
func (s *Sharded) Name() string { return s.name }

// Choose implements Strategy.
func (s *Sharded) Choose(c Call, cands []netsim.Option) netsim.Option {
	return s.shards[s.shardOf(c.Src, c.Dst)].Choose(c, cands)
}

// Observe implements Strategy.
func (s *Sharded) Observe(c Call, opt netsim.Option, m quality.Metrics) {
	s.shards[s.shardOf(c.Src, c.Dst)].Observe(c, opt, m)
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard exposes one shard (diagnostics).
func (s *Sharded) Shard(i int) Strategy { return s.shards[i] }

// SetReportHook implements ReportHooked by forwarding the hook to every
// shard that supports it, so a decision cache wrapped around the sharded
// strategy still sees report-application events. It reports true only if
// every shard attached the hook; otherwise the caller must keep its
// fallback path, because some pairs' reports would never fire the hook.
func (s *Sharded) SetReportHook(hook func(Call)) bool {
	all := len(s.shards) > 0
	for _, sh := range s.shards {
		h, ok := sh.(ReportHooked)
		if !ok || !h.SetReportHook(hook) {
			all = false
		}
	}
	return all
}
