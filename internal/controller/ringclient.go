package controller

// Ring-aware request routing. When the control plane is sharded behind a
// consistent-hash ring (internal/ring), the client keeps a local shard map
// and sends each pair-scoped request (choose/report) straight to the
// owning shard, skipping the router hop. The map can go stale — a shard
// was added or removed — in which case the contacted shard answers 307
// with the owner's base URL; the client follows the redirect, re-fetches
// the map via RefreshShards, and subsequent requests route correctly again
// (Client.exchange, controlclient.go).
//
// Without an installed map every request goes to Base: a single
// controller, or a ring router or shard, whose 307 the client then follows
// for every pair-scoped message. ring.NewClient installs the map for any
// router or shard URL.

// ShardMap is the client's read-only view of the ring: which shard owns a
// canonical (src, dst) pair. Implemented by ring.Map; an interface here so
// controller does not import the ring package (the dependency runs the
// other way).
type ShardMap interface {
	// Owner returns the owning shard's primary base URL and its warm
	// standby's base URL ("" when the shard has no standby).
	Owner(src, dst int32) (primary, standby string)
}

// shardHolder wraps the interface so atomic.Value always stores one
// concrete type regardless of which ShardMap implementation is installed.
type shardHolder struct{ m ShardMap }

// SetShards installs (or replaces) the client's shard map. Safe to call
// concurrently with requests; in-flight requests finish under the map
// they started with and correct themselves via 307 if it was stale.
func (c *Client) SetShards(m ShardMap) { c.shards.Store(shardHolder{m}) }

// shardMap returns the installed map, or nil for unsharded deployments.
func (c *Client) shardMap() ShardMap {
	if h, ok := c.shards.Load().(shardHolder); ok {
		return h.m
	}
	return nil
}

// Redirects returns how many epoch-stale 307 redirects the client has
// followed — each one is a request that raced a ring-map change.
func (c *Client) Redirects() int64 { return c.redirects.Load() }

// refreshShardMap re-fetches and installs the shard map after a stale
// redirect. Best-effort: on failure the old map stays and the next
// request takes another 307 hop.
func (c *Client) refreshShardMap() {
	if c.RefreshShards == nil {
		return
	}
	if m, err := c.RefreshShards(); err == nil && m != nil {
		c.SetShards(m)
	}
}
