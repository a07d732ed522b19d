// Package ring shards the Via control plane across N controller shards
// behind a consistent-hash ring. Each canonical (srcGroup, dstGroup) pair
// hashes to one shard, which runs an unmodified controller.Server — WAL,
// warm standby, admission and all. The ring layer adds:
//
//   - Map: the epoch-versioned shard map (virtual nodes over a 64-bit
//     hash ring) that every router, gate, and client agrees on
//   - Gate: per-shard middleware answering 307 for pairs the shard does
//     not own, so epoch-stale clients self-correct
//   - Router: a thin stateless front that serves the map, answers every
//     pair with the gate's 307 to its owner, and merges the one truly
//     global datum — the §4.6 budget percentile — from periodic
//     per-shard digests
//   - NewClient: a controller client that bootstraps the map from a
//     router or shard URL and goes shard-direct
//   - Fleet: an in-process multi-shard harness used by the soak/chaos
//     tests and viabench, with kill/promote/add/remove fault hooks
//
// Decision *state* never spans shards: a pair's whole history, UCB arms
// and top-k cache live on its owning shard, so moving a pair during a
// rebalance is a replay of just that pair's WAL records.
package ring

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Shard is one controller shard's position in the map: its identity and
// where to reach it. The standby URL may be empty for shards run without
// a warm standby.
type Shard struct {
	ID      int    `json:"id"`
	URL     string `json:"url"`
	Standby string `json:"standby,omitempty"`
}

// Map is an immutable, epoch-versioned consistent-hash ring over shards.
// Build one with NewMap or DecodeMap; derive successors with
// WithShardAdded / WithShardRemoved (epoch+1). Immutability is what makes
// the epoch protocol sound: a Map pointer can be published atomically and
// read without locks, and two holders of the same epoch agree on every
// pair's owner.
type Map struct {
	MapEpoch uint64  `json:"epoch"`
	VNodes   int     `json:"vnodes"`
	Shards   []Shard `json:"shards"`

	points []ringPoint // sorted by (hash, shard); rebuilt on decode
}

// ringPoint is one virtual node on the 64-bit ring.
type ringPoint struct {
	hash  uint64
	shard int // index into Shards
}

// DefaultVNodes balances distribution skew (≲10% at 3–10 shards, see
// TestMapVNodeSkew) against map size; ownership lookup is a binary
// search, so the cost of more vnodes is only build time and bytes.
const DefaultVNodes = 64

// mix64 is the splitmix64 finalizer — a cheap full-avalanche bijection.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// PairMix is the one hash of a group pair: the pair is ordered (min, max)
// first, so both call directions mix to the same value.
func PairMix(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))*0x9e3779b97f4a7c15 ^ uint64(uint32(b))*0x2545f4914f6cdd1d
}

// PairHash places a pair on the ring. Both call directions land on the
// same point (PairMix orders the pair first), with a finalizer on top of
// the mix so consecutive group IDs spread across the whole ring rather
// than clustering.
func PairHash(src, dst int32) uint64 {
	return mix64(PairMix(src, dst))
}

// NewMap builds an epoch-1 map over the given shards. vnodes <= 0 means
// DefaultVNodes. Shard IDs must be unique and non-negative (the router's
// gate takes -1); order does not matter (the ring depends only on IDs, so
// every builder of the same shard set gets the same ownership).
func NewMap(vnodes int, shards ...Shard) (*Map, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("ring: map needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	m := &Map{
		MapEpoch: 1,
		VNodes:   vnodes,
		Shards:   append([]Shard(nil), shards...),
	}
	if err := m.build(); err != nil {
		return nil, err
	}
	return m, nil
}

// build populates the sorted vnode points from Shards/VNodes.
func (m *Map) build() error {
	seen := make(map[int]bool, len(m.Shards))
	for _, s := range m.Shards {
		if s.ID < 0 {
			return fmt.Errorf("ring: negative shard id %d", s.ID)
		}
		if seen[s.ID] {
			return fmt.Errorf("ring: duplicate shard id %d", s.ID)
		}
		seen[s.ID] = true
	}
	if m.VNodes <= 0 {
		m.VNodes = DefaultVNodes
	}
	m.points = make([]ringPoint, 0, len(m.Shards)*m.VNodes)
	for i, s := range m.Shards {
		for v := 0; v < m.VNodes; v++ {
			// Vnode positions depend only on (shard ID, vnode index), so a
			// shard keeps its points across epochs and only the regions
			// between a changed shard's points move owners.
			h := mix64(uint64(uint32(s.ID))<<32 | uint64(uint32(v)))
			m.points = append(m.points, ringPoint{hash: h, shard: i})
		}
	}
	sort.Slice(m.points, func(i, j int) bool {
		if m.points[i].hash != m.points[j].hash {
			return m.points[i].hash < m.points[j].hash
		}
		// Hash ties (vanishingly rare) break by shard index so every
		// builder of the same map agrees on the owner.
		return m.points[i].shard < m.points[j].shard
	})
	return nil
}

// OwnerShard returns the shard owning a pair: the first vnode at or after
// the pair's hash, wrapping at the top of the ring.
func (m *Map) OwnerShard(src, dst int32) Shard {
	h := PairHash(src, dst)
	i := sort.Search(len(m.points), func(i int) bool { return m.points[i].hash >= h })
	if i == len(m.points) {
		i = 0
	}
	return m.Shards[m.points[i].shard]
}

// Owner implements controller.ShardMap, returning the owning shard's
// primary and standby base URLs.
func (m *Map) Owner(src, dst int32) (primary, standby string) {
	s := m.OwnerShard(src, dst)
	return s.URL, s.Standby
}

// ShardByID looks a shard up by ID.
func (m *Map) ShardByID(id int) (Shard, bool) {
	for _, s := range m.Shards {
		if s.ID == id {
			return s, true
		}
	}
	return Shard{}, false
}

// WithShardAdded derives the epoch+1 map including a new shard.
func (m *Map) WithShardAdded(s Shard) (*Map, error) {
	next := &Map{
		MapEpoch: m.MapEpoch + 1,
		VNodes:   m.VNodes,
		Shards:   append(append([]Shard(nil), m.Shards...), s),
	}
	if err := next.build(); err != nil {
		return nil, err
	}
	return next, nil
}

// WithShardRemoved derives the epoch+1 map without the given shard.
func (m *Map) WithShardRemoved(id int) (*Map, error) {
	next := &Map{MapEpoch: m.MapEpoch + 1, VNodes: m.VNodes}
	for _, s := range m.Shards {
		if s.ID != id {
			next.Shards = append(next.Shards, s)
		}
	}
	if len(next.Shards) == len(m.Shards) {
		return nil, fmt.Errorf("ring: no shard with id %d", id)
	}
	if len(next.Shards) == 0 {
		return nil, fmt.Errorf("ring: cannot remove the last shard")
	}
	if err := next.build(); err != nil {
		return nil, err
	}
	return next, nil
}

// EncodeJSON serializes the map for /v1/ring/map and map files.
func (m *Map) EncodeJSON() ([]byte, error) {
	return json.Marshal(m)
}

// DecodeMap parses an EncodeJSON payload and rebuilds the ring points.
func DecodeMap(data []byte) (*Map, error) {
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("ring: decode map: %w", err)
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("ring: decoded map has no shards")
	}
	if err := m.build(); err != nil {
		return nil, err
	}
	return &m, nil
}
