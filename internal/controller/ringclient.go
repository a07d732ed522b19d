package controller

// Ring-aware request routing. When the control plane is sharded behind a
// consistent-hash ring (internal/ring), the client keeps a local shard map
// and sends each pair-scoped request (choose/report) straight to the
// owning shard, skipping the router hop. The map can go stale — a shard
// was added or removed — in which case the contacted shard answers 307
// with the owner's URL; the client follows the redirect, re-fetches the
// map via RefreshShards, and subsequent requests route correctly again.
//
// Without an installed map the client behaves exactly as before: every
// request goes to Base (a single controller, or the ring router, which
// proxies by ownership itself).

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"
)

// ShardMap is the client's read-only view of the ring: which shard owns a
// canonical (src, dst) pair, and which epoch that assignment belongs to.
// Implemented by ring.Map; an interface here so controller does not
// import the ring package (the dependency runs the other way).
type ShardMap interface {
	// Epoch is the map's version; a higher epoch supersedes a lower one.
	Epoch() uint64
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

// ringClient returns the HTTP client used for shard-direct requests: a
// copy of c.HTTP that surfaces 307s instead of auto-following them, so
// the redirect can be counted and the shard map refreshed.
func (c *Client) ringClient() *http.Client {
	c.ringOnce.Do(func() {
		base := c.HTTP
		if base == nil {
			base = &http.Client{Timeout: 30 * time.Second}
		}
		hc := *base
		hc.CheckRedirect = func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		}
		c.ringHTTP = &hc
	})
	return c.ringHTTP
}

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

// postPair sends a pair-scoped POST to the shard owning (src, dst), with
// the same retry budget and jittered backoff as Client.do. Per attempt it
// tries the owner's primary then its standby; a 307 (epoch-stale map) is
// followed once to the URL the shard names, and triggers a map refresh so
// later requests go direct. Falls back to Client.post when no shard map
// is installed.
func (c *Client) postPair(src, dst int32, path string, req wireRequest, resp wireResponse) error {
	if c.shardMap() == nil {
		return c.post(path, req, resp)
	}
	body, err := encodeBody(req)
	if err != nil {
		return err
	}
	p := c.policy()
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			backoff := p.BaseDelay << (attempt - 1)
			if backoff > p.MaxDelay {
				backoff = p.MaxDelay
			}
			c.rngMu.Lock()
			u := c.rng.Float64()
			c.rngMu.Unlock()
			time.Sleep(time.Duration(float64(backoff) * (0.1 + 0.9*u)))
		}
		m := c.shardMap()
		if m == nil {
			return c.post(path, req, resp)
		}
		primary, standby := m.Owner(src, dst)
		targets := make([]string, 0, 2)
		if primary != "" {
			targets = append(targets, primary)
		}
		if standby != "" {
			targets = append(targets, standby)
		}
		for _, base := range targets {
			status, loc, err := c.ringPost(base+path, body, resp)
			if err != nil {
				lastErr = err
				continue // connection-level: try the standby
			}
			if status == http.StatusOK {
				return nil
			}
			if status == http.StatusTemporaryRedirect && loc != "" {
				// Our map is stale: follow the shard's answer once, and
				// refresh the map so the next request routes directly.
				c.redirects.Add(1)
				c.refreshShardMap()
				status2, _, err2 := c.ringPost(loc, body, resp)
				if err2 == nil && status2 == http.StatusOK {
					return nil
				}
				if err2 != nil {
					lastErr = err2
				} else {
					lastErr = fmt.Errorf("controller: %s redirect target returned %d", path, status2)
				}
				continue
			}
			lastErr = fmt.Errorf("controller: %s returned status %d", path, status)
			if !retryable(status) {
				return lastErr
			}
		}
	}
	return lastErr
}

// ringPost performs one POST against an absolute URL. On 200 the response
// body is decoded into resp; on 307 the Location header is returned for
// the caller to follow; other statuses are reported as-is.
func (c *Client) ringPost(url string, body []byte, resp wireResponse) (status int, location string, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.policy().Timeout)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	hr.Header.Set("Content-Type", "application/json")
	r, err := c.ringClient().Do(hr)
	if err != nil {
		return 0, "", err
	}
	if r.StatusCode != http.StatusOK {
		r.Body.Close() //vialint:ignore errwrap a non-200 body is discarded; the status (and Location) is the answer
		if r.StatusCode == http.StatusTemporaryRedirect {
			return r.StatusCode, r.Header.Get("Location"), nil
		}
		return r.StatusCode, "", nil
	}
	if err := readResponse(r, resp); err != nil {
		return 0, "", fmt.Errorf("controller: decode %s: %w", url, err)
	}
	return r.StatusCode, "", nil
}
