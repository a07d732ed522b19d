package controller

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Admission control (§7 scalability): the strategy serializes decisions
// behind one mutex, so under overload every goroutine in the process piles
// up on that lock and p99 grows without bound. A bounded work queue per hot
// endpoint keeps the pile-up finite: up to MaxConcurrent requests run, up
// to MaxWaiting queue briefly, everything beyond that is shed immediately
// with 503 + Retry-After so callers fall back to their cached-decision
// Selector (the paper's default-path degradation) instead of timing out.

// AdmissionConfig bounds per-endpoint concurrency on the decision endpoints
// (choose and report, over either carrier). The zero value disables
// admission control.
type AdmissionConfig struct {
	// MaxConcurrent is the number of requests allowed inside the handler at
	// once, per endpoint. 0 disables admission control entirely.
	MaxConcurrent int
	// MaxWaiting bounds the queue behind the concurrency slots; a request
	// arriving with the queue full is shed immediately. Default: 4×
	// MaxConcurrent.
	MaxWaiting int
	// QueueTimeout caps how long a queued request waits for a slot before
	// being shed. Default: 100ms — less than a retry's backoff, so shedding
	// is always cheaper for the caller than queueing would have been.
	QueueTimeout time.Duration
}

func (a AdmissionConfig) withDefaults() AdmissionConfig {
	if a.MaxConcurrent > 0 {
		if a.MaxWaiting <= 0 {
			a.MaxWaiting = 4 * a.MaxConcurrent
		}
		if a.QueueTimeout <= 0 {
			a.QueueTimeout = 100 * time.Millisecond
		}
	}
	return a
}

// limiter is one endpoint's bounded work queue.
type limiter struct {
	sem        chan struct{}
	waiting    atomic.Int64
	maxWaiting int64
	timeout    time.Duration
	shed       *obs.Counter
}

func newLimiter(cfg AdmissionConfig, shed *obs.Counter) *limiter {
	cfg = cfg.withDefaults()
	if cfg.MaxConcurrent <= 0 {
		return nil
	}
	return &limiter{
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		maxWaiting: int64(cfg.MaxWaiting),
		timeout:    cfg.QueueTimeout,
		shed:       shed,
	}
}

// acquire takes a slot, queueing up to the configured bound and timeout.
// Returns false when the request should be shed.
func (l *limiter) acquire(done <-chan struct{}) bool {
	select {
	case l.sem <- struct{}{}:
		return true
	default:
	}
	if l.waiting.Add(1) > l.maxWaiting {
		l.waiting.Add(-1)
		return false
	}
	defer l.waiting.Add(-1)
	t := time.NewTimer(l.timeout)
	defer t.Stop()
	select {
	case l.sem <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-done:
		return false // caller hung up while queued
	}
}

// admit takes a slot for one choose or report, for either carrier; with
// admission control off (nil limiter) every message is admitted. A message
// that finds no slot in time, or whose caller hangs up (done) while it
// queues, is shed: admit counts it and returns false, and the caller
// answers 503 with the shed text. Both carriers send a 503 with
// Retry-After, which tells well-behaved clients to back off a beat; the
// controller.Client treats 503 as retryable with jittered backoff already,
// and its circuit breaker opens under a streak. An admitted message
// releases its slot when it is done.
func (l *limiter) admit(done <-chan struct{}) bool {
	if l == nil || l.acquire(done) {
		return true
	}
	l.shed.Inc()
	return false
}

// release frees an admitted message's slot.
func (l *limiter) release() {
	if l != nil {
		<-l.sem
	}
}
