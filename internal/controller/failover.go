package controller

import (
	"errors"
	"sync"
	"time"
)

// Client-side HA: replica failover and a circuit breaker.
//
// Failover — the client holds a list of controller endpoints (the primary
// and its standbys) and a sticky cursor. Requests go to the current
// endpoint until it fails (connection error or retryable status, which
// includes the 503 a standby answers on decision endpoints); the cursor
// then advances and the attempt is re-sent to the next endpoint. Because
// a standby refuses decision traffic until promoted, the cursor naturally
// settles on whichever replica is currently primary.
//
// Circuit breaker — when the whole endpoint list is down, every request
// still burns MaxAttempts × Timeout before failing. After Threshold
// consecutive request failures the breaker opens and requests fail fast
// with ErrCircuitOpen, letting the caller's Selector serve cached
// decisions at call-setup speed instead of stalling each call on a dead
// control plane. After Cooldown one probe request is let through
// (half-open); success closes the breaker, failure re-opens it.

// ErrCircuitOpen is returned without any network I/O while the client's
// circuit breaker is open.
var ErrCircuitOpen = errors.New("controller: circuit open, control plane assumed down")

// BreakerConfig tunes the client's circuit breaker. The zero value means
// defaults (threshold 5, cooldown 1s); Threshold < 0 disables the breaker.
type BreakerConfig struct {
	// Threshold is how many consecutive failed requests open the circuit.
	// 0 = default 5; negative disables the breaker entirely.
	Threshold int
	// Cooldown is how long the circuit stays open before a half-open
	// probe. 0 = default 1s.
	Cooldown time.Duration
}

func (b BreakerConfig) withDefaults() BreakerConfig {
	if b.Threshold == 0 {
		b.Threshold = 5
	}
	if b.Cooldown <= 0 {
		b.Cooldown = time.Second
	}
	return b
}

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a consecutive-failure circuit breaker. A plain mutex: the
// control path does one request per call, so contention is negligible.
type breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    int       // guarded by mu
	fails    int       // guarded by mu — consecutive failures while closed
	openedAt time.Time // guarded by mu
	trips    int64     // guarded by mu — times the breaker opened
}

func newBreaker(cfg BreakerConfig) *breaker {
	return &breaker{cfg: cfg.withDefaults()}
}

// allow reports whether a request may proceed. In the open state it
// returns false until Cooldown has passed, then admits exactly one probe
// (half-open).
func (b *breaker) allow() bool {
	if b.cfg.Threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) >= b.cfg.Cooldown {
			b.state = breakerHalfOpen
			return true // the probe
		}
		return false
	default: // half-open: a probe is already in flight
		return false
	}
}

// success records a completed request and closes the circuit.
func (b *breaker) success() {
	if b.cfg.Threshold < 0 {
		return
	}
	b.mu.Lock()
	b.state = breakerClosed
	b.fails = 0
	b.mu.Unlock()
}

// failure records a failed request: a failed probe re-opens immediately, a
// streak of Threshold failures opens from closed.
func (b *breaker) failure() {
	if b.cfg.Threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = time.Now()
		b.trips++
	case breakerClosed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.state = breakerOpen
			b.openedAt = time.Now()
			b.trips++
		}
	}
}

// endpoints returns the failover list: Base first, then Replicas.
func (c *Client) endpoints() []string {
	eps := make([]string, 0, 1+len(c.Replicas))
	eps = append(eps, c.Base)
	eps = append(eps, c.Replicas...)
	return eps
}

// endpoint returns the list and the sticky cursor's current position.
func (c *Client) endpoint() ([]string, int) {
	eps := c.endpoints()
	return eps, int(c.cursor.Load()) % len(eps)
}

// failover advances the cursor past a failed endpoint. Compare-and-swap so
// concurrent requests that observed the same failure advance it once, not
// once each.
func (c *Client) failover(from int) {
	if c.cursor.CompareAndSwap(int32(from), int32(from+1)%int32(len(c.endpoints()))) {
		c.failovers.Add(1)
	}
}

// Failovers returns how many times the client has moved to another
// endpoint.
func (c *Client) Failovers() int64 { return c.failovers.Load() } //vialint:ignore deadexport asserted by the HA chaos gate (DESIGN §9)

// breakerState lazily builds the breaker so the zero-config Client (and
// every existing construction site) gets the default breaker without a
// mandatory constructor change.
func (c *Client) breakerState() *breaker {
	c.brkOnce.Do(func() {
		c.brk = newBreaker(c.Breaker)
	})
	return c.brk
}
