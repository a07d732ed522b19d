package controller

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/transport"
)

// fastRetry keeps failover tests quick: one extra attempt, tiny backoff.
func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond,
		MaxDelay: 2 * time.Millisecond, Timeout: time.Second}
}

// TestClientFailsOverToReplica: when the primary endpoint refuses (503, as
// a standby or shedding controller does), the request's own retry budget
// lands it on a replica, and the cursor sticks there for later requests.
func TestClientFailsOverToReplica(t *testing.T) {
	var deadHits atomic.Int64
	dead := fakeControl(t, func(_ transport.Op, _, _ int32, _ []byte, _ <-chan struct{}, out []byte) (int, []byte) {
		deadHits.Add(1)
		return http.StatusServiceUnavailable, append(out, "standby"...)
	}, nil)

	live := New(Config{Strategy: &recordingStrategy{ret: netsim.BounceOption(1)}})
	liveTS := httptest.NewServer(live.Handler())
	defer liveTS.Close()

	c := NewClient(dead.URL)
	c.Replicas = []string{liveTS.URL}
	c.Retry = fastRetry()

	cands := []netsim.Option{netsim.DirectOption(), netsim.BounceOption(1)}
	opt, err := c.Choose(1, 2, cands)
	if err != nil {
		t.Fatalf("choose across failover: %v", err)
	}
	if opt != netsim.BounceOption(1) {
		t.Fatalf("chose %v", opt)
	}
	if c.Failovers() == 0 {
		t.Fatal("no failover recorded")
	}
	hitsAfterFailover := deadHits.Load()

	// Sticky: subsequent requests go straight to the replica.
	for i := 0; i < 5; i++ {
		if _, err := c.Choose(1, 2, cands); err != nil {
			t.Fatalf("post-failover choose %d: %v", i, err)
		}
	}
	if got := deadHits.Load(); got != hitsAfterFailover {
		t.Fatalf("dead endpoint hit %d more times after failover", got-hitsAfterFailover)
	}
}

// TestClientBreakerOpensFailsFastAndRecovers: a down control plane trips
// the breaker after Threshold consecutive request failures; while open,
// calls fail in microseconds with ErrCircuitOpen (no network, no retry
// sleeps); after Cooldown a half-open probe finds the recovered controller
// and closes the circuit.
func TestClientBreakerOpensFailsFastAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	inner := New(Config{Strategy: &recordingStrategy{ret: netsim.DirectOption()}})
	ts := fakeControl(t, func(op transport.Op, src, dst int32, body []byte, done <-chan struct{}, out []byte) (int, []byte) {
		if !healthy.Load() {
			return http.StatusServiceUnavailable, append(out, "down"...)
		}
		return inner.serveMessage(op, src, dst, body, done, out)
	}, nil)

	c := NewClient(ts.URL)
	c.Retry = fastRetry()
	c.Breaker = BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond}

	cands := []netsim.Option{netsim.DirectOption()}
	for i := 0; i < 2; i++ {
		if _, err := c.Choose(1, 2, cands); err == nil {
			t.Fatalf("request %d against down controller succeeded", i)
		}
	}
	if open, trips := c.breakerState().snapshot(); !open || trips != 1 {
		t.Fatalf("after threshold failures: open=%v trips=%d", open, trips)
	}

	// Open circuit: fail fast, no I/O.
	start := time.Now()
	if _, err := c.Choose(1, 2, cands); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-circuit error = %v", err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("open-circuit request took %v; should not touch the network", d)
	}

	// A probe against a still-down controller re-opens the circuit.
	time.Sleep(60 * time.Millisecond)
	if _, err := c.Choose(1, 2, cands); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("half-open probe error = %v", err)
	}
	if _, err := c.Choose(1, 2, cands); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("post-failed-probe error = %v", err)
	}

	// Recovery: probe succeeds, circuit closes, traffic flows.
	healthy.Store(true)
	time.Sleep(60 * time.Millisecond)
	if _, err := c.Choose(1, 2, cands); err != nil {
		t.Fatalf("probe against recovered controller: %v", err)
	}
	if open, _ := c.breakerState().snapshot(); open {
		t.Fatal("breaker still open after successful probe")
	}
	if err := c.Report(1, 2, netsim.DirectOption(), quality.Metrics{RTTMs: 50, LossRate: 0, JitterMs: 1}); err != nil {
		t.Fatalf("report after recovery: %v", err)
	}
}

// TestClientBreakerDisabled: Threshold < 0 never opens the circuit no
// matter how many failures accumulate.
func TestClientBreakerDisabled(t *testing.T) {
	ts := fakeControl(t, answer(http.StatusServiceUnavailable, "down"), nil)
	c := NewClient(ts.URL)
	c.Retry = fastRetry()
	c.Breaker = BreakerConfig{Threshold: -1}
	for i := 0; i < 10; i++ {
		if _, err := c.Choose(1, 2, []netsim.Option{netsim.DirectOption()}); errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("disabled breaker opened on request %d", i)
		}
	}
	if open, trips := c.breakerState().snapshot(); open || trips != 0 {
		t.Fatalf("disabled breaker: open=%v trips=%d", open, trips)
	}
}

// TestClientFailoverWithPromotion: the end-to-end client story — primary
// dies, standby is promoted, and the same Client object keeps serving
// decisions because its cursor walks to the promoted replica.
func TestClientFailoverWithPromotion(t *testing.T) {
	clk := newFakeClock()
	p, pts, pc := startPrimary(t, t.TempDir(), clk, -1)
	drive20(t, clk, pc)

	sb := startStandby(t, t.TempDir(), pts.URL, clk, false)
	defer sb.Close()
	sts := httptest.NewServer(sb.Handler())
	defer sts.Close()
	waitFor(t, 5*time.Second, "standby catch-up", func() bool {
		return sb.AppliedLSN() == p.AppliedLSN()
	})

	c := NewClient(pts.URL)
	c.Replicas = []string{sts.URL}
	c.Retry = fastRetry()
	cands := testCands()
	if _, err := c.Choose(3, 9, cands); err != nil {
		t.Fatalf("choose via primary: %v", err)
	}

	pts.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Promote(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(97 * time.Millisecond)
	if _, err := c.Choose(3, 9, cands); err != nil {
		t.Fatalf("choose after failover to promoted standby: %v", err)
	}
	if c.Failovers() == 0 {
		t.Fatal("client never failed over")
	}
}

// TestCloseEndsControlStreams: Server.Close severs the control streams
// clients hold in their pools — hijacked connections are invisible to
// http.Server — and refuses new ones, so a client whose primary closed
// behind a still-open listener fails over rather than stalling on a dead
// stream or being served by a closed controller.
func TestCloseEndsControlStreams(t *testing.T) {
	reg := obs.NewRegistry()
	primary := New(Config{Strategy: &recordingStrategy{ret: netsim.BounceOption(1)}, Metrics: reg})
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()
	replica := New(Config{Strategy: &recordingStrategy{ret: netsim.BounceOption(1)}})
	rts := httptest.NewServer(replica.Handler())
	defer rts.Close()
	defer replica.Close() //vialint:ignore errwrap test teardown close

	c := NewClient(pts.URL)
	c.Replicas = []string{rts.URL}
	c.Retry = fastRetry()
	cands := []netsim.Option{netsim.DirectOption(), netsim.BounceOption(1)}
	if _, err := c.Choose(1, 2, cands); err != nil {
		t.Fatalf("choose via primary: %v", err)
	}
	if n := reg.Snapshot()["via_controller_control_streams"]; n != 1 {
		t.Fatalf("open control streams = %v after one choose, want 1", n)
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "streams severed", func() bool {
		return reg.Snapshot()["via_controller_control_streams"] == 0
	})
	if _, err := c.Choose(1, 2, cands); err != nil {
		t.Fatalf("choose after the primary closed: %v", err)
	}
	if c.Failovers() == 0 {
		t.Fatal("client never failed over")
	}
	if p, r := primary.chooses.Load(), replica.chooses.Load(); p != 1 || r != 1 {
		t.Fatalf("chooses served: primary %d, replica %d; want 1 each", p, r)
	}
}

// staticShards is a ShardMap sending every pair to one primary and standby.
type staticShards struct{ primary, standby string }

func (m staticShards) Owner(int32, int32) (string, string) { return m.primary, m.standby }

// countingTransport counts the requests and stream dials a client puts on
// the wire.
type countingTransport struct{ n atomic.Int64 }

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestRingClientBreakerOpens: with a shard map installed, a control plane
// whose shards are all dead trips the breaker after Threshold failed
// requests, and from then on choose and report fail with ErrCircuitOpen
// without touching the network — the contract above, for ring clients too.
func TestRingClientBreakerOpens(t *testing.T) {
	dead := func() string {
		ts := httptest.NewServer(http.NotFoundHandler())
		ts.Close()
		return ts.URL
	}
	wire := &countingTransport{}
	c := NewClient(dead())
	c.HTTP = &http.Client{Transport: wire, Timeout: time.Second}
	c.SetShards(staticShards{dead(), dead()})
	c.Retry = fastRetry()
	c.Breaker = BreakerConfig{Threshold: 2, Cooldown: time.Minute}
	cands := []netsim.Option{netsim.DirectOption()}
	for i := 0; i < 2; i++ {
		if _, err := c.Choose(1, 2, cands); err == nil || errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("request %d against dead shards: %v", i, err)
		}
	}
	if open, trips := c.breakerState().snapshot(); !open || trips != 1 {
		t.Fatalf("after threshold failures: open=%v trips=%d", open, trips)
	}
	before := wire.n.Load()
	start := time.Now()
	if _, err := c.Choose(1, 2, cands); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-circuit choose error = %v", err)
	}
	if err := c.Report(1, 2, netsim.DirectOption(), quality.Metrics{RTTMs: 50}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-circuit report error = %v", err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("open-circuit requests took %v", d)
	}
	if n := wire.n.Load(); n != before {
		t.Fatalf("open circuit made %d requests", n-before)
	}
}

// snapshot returns (open, trips) for diagnostics.
func (b *breaker) snapshot() (bool, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != breakerClosed, b.trips
}
