package ring

import (
	"testing"
)

func testShards(n int) []Shard {
	out := make([]Shard, n)
	for i := range out {
		out[i] = Shard{ID: i, URL: "http://primary-" + string(rune('a'+i)), Standby: "http://standby-" + string(rune('a'+i))}
	}
	return out
}

func TestMapOwnershipIsCanonical(t *testing.T) {
	m, err := NewMap(0, testShards(5)...)
	if err != nil {
		t.Fatal(err)
	}
	for src := int32(0); src < 500; src++ {
		dst := src + 1000
		if a, b := m.OwnerShard(src, dst), m.OwnerShard(dst, src); a.ID != b.ID {
			t.Fatalf("pair (%d,%d): owner %d forward but %d reversed", src, dst, a.ID, b.ID)
		}
	}
}

// TestPairHashPinned pins PairHash to recorded values. Ownership is a
// function of these hashes, so a change to PairMix or the finalizer would
// send an upgraded ring's pairs to shards that do not hold their history.
func TestPairHashPinned(t *testing.T) {
	for _, c := range []struct {
		src, dst int32
		want     uint64
	}{
		{1, 2, 0xdb0157e2dd81e4da},
		{2, 1, 0xdb0157e2dd81e4da},
		{-1, 7, 0x2b62c77560677e03},
		{7, -1, 0x2b62c77560677e03},
		{-2147483648, 2147483647, 0xf3a688a349bf0c2d},
		{149, 3, 0x1923b346ee7e8706},
		{1000000, 42, 0xcd68151d9703ca43},
	} {
		if got := PairHash(c.src, c.dst); got != c.want {
			t.Errorf("PairHash(%d, %d) = %#x, want %#x", c.src, c.dst, got, c.want)
		}
	}
}

func TestMapOwnershipDeterministicAcrossBuilders(t *testing.T) {
	// Two independently built maps over the same shard set (different
	// insertion order) must agree on every owner.
	a, err := NewMap(0, testShards(4)...)
	if err != nil {
		t.Fatal(err)
	}
	rev := testShards(4)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	b, err := NewMap(0, rev...)
	if err != nil {
		t.Fatal(err)
	}
	for src := int32(0); src < 1000; src++ {
		if x, y := a.OwnerShard(src, src+1), b.OwnerShard(src, src+1); x.ID != y.ID {
			t.Fatalf("pair (%d,%d): owner %d vs %d across builders", src, src+1, x.ID, y.ID)
		}
	}
}

func TestMapVNodeSkew(t *testing.T) {
	m, err := NewMap(DefaultVNodes, testShards(5)...)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	const pairs = 100_000
	for i := 0; i < pairs; i++ {
		src := int32(2 * i)
		counts[m.OwnerShard(src, src+1).ID]++
	}
	mean := float64(pairs) / float64(len(m.Shards))
	for id, n := range counts {
		ratio := float64(n) / mean
		if ratio > 1.5 || ratio < 0.5 {
			t.Errorf("shard %d owns %d pairs (%.2f× mean); vnode distribution too skewed", id, n, ratio)
		}
	}
	if len(counts) != len(m.Shards) {
		t.Errorf("only %d of %d shards own any pairs", len(counts), len(m.Shards))
	}
}

func TestMapEpochDerivation(t *testing.T) {
	m, err := NewMap(0, testShards(2)...)
	if err != nil {
		t.Fatal(err)
	}
	if m.MapEpoch != 1 {
		t.Fatalf("fresh map epoch = %d, want 1", m.MapEpoch)
	}
	grown, err := m.WithShardAdded(Shard{ID: 2, URL: "http://primary-c"})
	if err != nil {
		t.Fatal(err)
	}
	if grown.MapEpoch != 2 || len(grown.Shards) != 3 {
		t.Fatalf("grown map epoch=%d shards=%d, want 2/3", grown.MapEpoch, len(grown.Shards))
	}
	shrunk, err := grown.WithShardRemoved(0)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.MapEpoch != 3 || len(shrunk.Shards) != 2 {
		t.Fatalf("shrunk map epoch=%d shards=%d, want 3/2", shrunk.MapEpoch, len(shrunk.Shards))
	}
	if _, ok := shrunk.ShardByID(0); ok {
		t.Fatal("removed shard 0 still present")
	}
	if _, err := m.WithShardRemoved(99); err == nil {
		t.Fatal("removing unknown shard succeeded")
	}
	if _, err := m.WithShardAdded(Shard{ID: 1}); err == nil {
		t.Fatal("adding duplicate shard id succeeded")
	}
}

func TestMapGrowthMovesOnlyToNewShard(t *testing.T) {
	// Consistent hashing's contract: adding a shard only reassigns pairs
	// TO the new shard; no pair moves between surviving shards.
	m, err := NewMap(0, testShards(4)...)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := m.WithShardAdded(Shard{ID: 4, URL: "http://primary-e"})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 10_000; i++ {
		src := int32(2 * i)
		before, after := m.OwnerShard(src, src+1).ID, grown.OwnerShard(src, src+1).ID
		if before != after {
			if after != 4 {
				t.Fatalf("pair (%d,%d) moved %d→%d, not to the new shard", src, src+1, before, after)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no pair moved to the new shard")
	}
}

func TestMapJSONRoundTrip(t *testing.T) {
	m, err := NewMap(32, testShards(3)...)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMap(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.MapEpoch != m.MapEpoch || got.VNodes != m.VNodes || len(got.Shards) != len(m.Shards) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", got, m)
	}
	for i := 0; i < 5000; i++ {
		src := int32(3 * i)
		if a, b := m.OwnerShard(src, src+2).ID, got.OwnerShard(src, src+2).ID; a != b {
			t.Fatalf("pair (%d,%d): owner %d before, %d after round-trip", src, src+2, a, b)
		}
	}
	if _, err := DecodeMap([]byte("{}")); err == nil {
		t.Fatal("decoding an empty map succeeded")
	}
	if _, err := DecodeMap([]byte("not json")); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
	// -1 is the router gate's ID, which no shard may hold.
	if _, err := DecodeMap([]byte(`{"epoch":1,"shards":[{"id":-1,"url":"http://s"}]}`)); err == nil {
		t.Fatal("decoding a map with a negative shard id succeeded")
	}
}
