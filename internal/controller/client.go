package controller

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/stats"
	"repro/internal/transport"
)

// RetryPolicy bounds how hard the client tries before giving up. Control
// RPCs are small and idempotent (a duplicate report is one extra sample;
// a duplicate choose is a second read), so retrying is always safe — the
// policy only caps how much call-setup latency a flaky control plane may
// add before the agent falls back to a cached decision.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request (min 1).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// retry, with full jitter, up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep.
	MaxDelay time.Duration
	// Timeout is the per-attempt request deadline.
	Timeout time.Duration
}

// DefaultRetryPolicy suits a controller a WAN round-trip away: three
// attempts inside ~1s keep call setup snappy while riding out a flapped
// listener or a lost datagram on the control path.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    500 * time.Millisecond,
		Timeout:     2 * time.Second,
	}
}

// Client is the client the relays and call agents use to talk to the
// controller: choose and report over pooled control streams
// (controlclient.go), every other endpoint over plain HTTP. Every request
// carries a deadline and is retried with exponential backoff and jitter
// under the Retry policy; a zero-valued policy field falls back to its
// default. With Replicas set the client fails over between controller
// endpoints (see failover.go), and a circuit breaker fails fast once the
// whole control plane looks down.
type Client struct {
	Base string // e.g. "http://127.0.0.1:8080"
	// HTTP carries the HTTP endpoints; its Transport (nil means
	// http.DefaultTransport) also dials the control streams.
	HTTP  *http.Client
	Retry RetryPolicy
	// Replicas are additional controller endpoints (warm standbys) tried
	// when the current endpoint fails. Set before the first request.
	Replicas []string
	// Breaker tunes the circuit breaker; zero value = defaults, negative
	// Threshold disables it. Set before the first request.
	Breaker BreakerConfig
	// RefreshShards re-fetches the ring shard map after an epoch-stale
	// redirect (see ringclient.go). Set before the first request; only
	// meaningful once SetShards has installed a map.
	RefreshShards func() (ShardMap, error)

	rngMu     sync.Mutex
	rng       *stats.RNG   // guarded by rngMu
	retries   atomic.Int64 // extra attempts beyond the first, across calls
	cursor    atomic.Int32 // sticky index into endpoints()
	failovers atomic.Int64 // endpoint switches
	brkOnce   sync.Once
	brk       *breaker     // initialized by breakerState
	shards    atomic.Value // shardHolder; set by SetShards
	redirects atomic.Int64 // 307 epoch-stale redirects followed

	streamMu sync.Mutex
	idle     map[string][]*ctlStream // guarded by streamMu — idle control streams by endpoint
}

// NewClient builds a client for a controller base URL with the default
// retry policy and jitter seed.
func NewClient(base string) *Client {
	return &Client{
		Base: base,
		// Per-attempt deadlines come from the retry policy's context; the
		// client-level Timeout is the backstop if a caller swaps in a
		// policy with a zero Timeout.
		HTTP:  &http.Client{Timeout: 30 * time.Second},
		Retry: DefaultRetryPolicy(),
		rng:   stats.NewRNG(1).Split("ctrl-client"),
	}
}

// Retries returns how many extra attempts (beyond each request's first)
// the client has made — a cheap health signal for the control path.
func (c *Client) Retries() int64 { return c.retries.Load() }

// policy returns the retry policy with zero fields defaulted.
func (c *Client) policy() RetryPolicy {
	p := c.Retry
	d := DefaultRetryPolicy()
	if p.MaxAttempts < 1 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Timeout <= 0 {
		p.Timeout = d.Timeout
	}
	return p
}

// retryable reports whether a status code is worth another attempt:
// transient server conditions, not client mistakes.
func retryable(status int) bool {
	switch status {
	case http.StatusRequestTimeout, http.StatusTooManyRequests,
		http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// readResponse decodes one 200 response into resp (a pointer) from a
// whole-body read into a pooled buffer, then closes the body.
func readResponse(r *http.Response, resp any) error {
	buf := transport.GetBuffer()
	defer buf.Release()
	var err error
	buf.B, err = transport.ReadBody(buf.B, r.Body, r.ContentLength)
	r.Body.Close() //vialint:ignore errwrap body read to its end (or abandoned on a read error); close failures have no recovery
	if err != nil {
		return err
	}
	return json.Unmarshal(buf.B, resp)
}

// backoff sleeps before a retry: BaseDelay doubling per attempt up to
// MaxDelay, jittered uniform in (0.1, 1]× so synchronized clients don't
// hammer a recovering controller in lockstep.
func (c *Client) backoff(p RetryPolicy, attempt int) {
	c.retries.Add(1)
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	c.rngMu.Lock()
	u := c.rng.Float64()
	c.rngMu.Unlock()
	time.Sleep(time.Duration(float64(d) * (0.1 + 0.9*u)))
}

// do runs one HTTP exchange with retries; makeReq builds a fresh request
// per attempt against the current failover endpoint (bodies are not
// rewindable across attempts). An endpoint-level failure — connection
// error or a retryable status, including the 503 a standby answers —
// advances the failover cursor before the next attempt, so one request's
// retry budget already spans multiple replicas.
func (c *Client) do(path string, makeReq func(ctx context.Context, base string) (*http.Request, error), resp any) error {
	brk := c.breakerState()
	if !brk.allow() {
		return ErrCircuitOpen
	}
	p := c.policy()
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.backoff(p, attempt)
		}
		eps, cur := c.endpoint()
		ctx, cancel := context.WithTimeout(context.Background(), p.Timeout)
		req, err := makeReq(ctx, eps[cur])
		if err != nil {
			cancel()
			brk.failure()
			return err // request construction never recovers by retrying
		}
		r, err := c.HTTP.Do(req)
		if err != nil {
			cancel()
			lastErr = err
			c.failover(cur)
			continue
		}
		if r.StatusCode != http.StatusOK {
			r.Body.Close() //vialint:ignore errwrap error-path close; the status is already the failure being handled
			cancel()
			lastErr = fmt.Errorf("controller: %s returned %s", path, r.Status)
			if !retryable(r.StatusCode) {
				brk.failure()
				return lastErr
			}
			c.failover(cur)
			continue
		}
		err = readResponse(r, resp)
		cancel()
		if err != nil {
			lastErr = fmt.Errorf("controller: %s decode: %w", path, err)
			continue // truncated body: transient, retry
		}
		brk.success()
		return nil
	}
	brk.failure()
	return lastErr
}

// post encodes req once, for every attempt, and decodes the answer into
// resp (a pointer).
func (c *Client) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.do(path, func(ctx context.Context, base string) (*http.Request, error) {
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", "application/json")
		return hr, nil
	}, resp)
}

func (c *Client) get(path string, resp any) error {
	return c.do(path, func(ctx context.Context, base string) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	}, resp)
}

// RegisterRelay announces a relay's media address.
func (c *Client) RegisterRelay(id netsim.RelayID, addr string) error {
	return c.HeartbeatRelay(id, addr, false)
}

// HeartbeatRelay re-announces a relay, optionally advertising drain mode.
// A draining relay stays registered (its sessions are still live) but is
// excluded from the directory and candidate enumeration until a
// non-draining heartbeat clears the mark.
func (c *Client) HeartbeatRelay(id netsim.RelayID, addr string, draining bool) error {
	var resp transport.RegisterRelayResponse
	return c.post("/v1/relays/register",
		transport.RegisterRelayRequest{RelayID: id, Addr: addr, Draining: draining}, &resp)
}

// Relays fetches the registered relay directory.
func (c *Client) Relays() (map[netsim.RelayID]string, error) {
	var resp transport.RelayListResponse
	if err := c.get("/v1/relays", &resp); err != nil {
		return nil, err
	}
	out := make(map[netsim.RelayID]string, len(resp.Relays))
	for _, r := range resp.Relays {
		out[r.RelayID] = r.Addr
	}
	return out, nil
}

// Choose asks the controller for a relaying option.
func (c *Client) Choose(src, dst int32, cands []netsim.Option) (netsim.Option, error) {
	opt, _, err := c.ChooseWithRepair(src, dst, cands, nil)
	return opt, err
}

// ChooseWithRepair asks the controller for a relaying option plus a
// loss-repair scheme from the offered candidate names. A controller (or
// strategy) without repair support answers with an empty scheme — the
// caller falls back to plain forwarding.
func (c *Client) ChooseWithRepair(src, dst int32, cands []netsim.Option, schemes []string) (netsim.Option, string, error) {
	var d transport.Decision
	err := c.call(transport.OpChoose, src, dst, func(b []byte) ([]byte, error) {
		return transport.AppendChoose(b, cands, schemes)
	}, &d)
	if err != nil {
		return netsim.DirectOption(), "", err
	}
	return d.Option, d.Repair, nil
}

// ReportRepair pushes one call's measurements along with the repair
// scheme that ran and the call duration in seconds (0 = unknown).
func (c *Client) ReportRepair(src, dst int32, opt netsim.Option, scheme string, durSec float64, m quality.Metrics) error {
	return c.call(transport.OpReport, src, dst, func(b []byte) ([]byte, error) {
		return transport.AppendReport(b, opt, m, durSec, scheme)
	}, reportAck{})
}

// Report pushes one call's measurements.
func (c *Client) Report(src, dst int32, opt netsim.Option, m quality.Metrics) error {
	return c.ReportRepair(src, dst, opt, "", 0, m)
}

// Stats fetches controller counters.
func (c *Client) Stats() (transport.StatsResponse, error) {
	var resp transport.StatsResponse
	err := c.get("/v1/stats", &resp)
	return resp, err
}

// Health fetches the controller's liveness probe.
func (c *Client) Health() (transport.HealthResponse, error) {
	var resp transport.HealthResponse
	err := c.get("/v1/health", &resp)
	return resp, err
}
