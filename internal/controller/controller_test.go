package controller

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/transport"
)

// recordingStrategy remembers what it was asked and told.
type recordingStrategy struct {
	chooseCalls  []core.Call
	chooseCands  [][]netsim.Option
	observeCalls []core.Call
	observeOpts  []netsim.Option
	observeM     []quality.Metrics
	ret          netsim.Option
}

func (r *recordingStrategy) Name() string { return "recording" }
func (r *recordingStrategy) Choose(c core.Call, cands []netsim.Option) netsim.Option {
	r.chooseCalls = append(r.chooseCalls, c)
	r.chooseCands = append(r.chooseCands, cands)
	return r.ret
}
func (r *recordingStrategy) Observe(c core.Call, o netsim.Option, m quality.Metrics) {
	r.observeCalls = append(r.observeCalls, c)
	r.observeOpts = append(r.observeOpts, o)
	r.observeM = append(r.observeM, m)
}

func testServer(t *testing.T, strat core.Strategy) (*Server, *Client) {
	t.Helper()
	s := New(Config{Strategy: strat, TimeScale: 3600}) // 1s = 1h
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL)
}

func TestRegisterAndListRelays(t *testing.T) {
	_, c := testServer(t, &recordingStrategy{})
	if err := c.RegisterRelay(3, "127.0.0.1:5003"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterRelay(1, "127.0.0.1:5001"); err != nil {
		t.Fatal(err)
	}
	// Re-registration overwrites.
	if err := c.RegisterRelay(1, "127.0.0.1:6001"); err != nil {
		t.Fatal(err)
	}
	relays, err := c.Relays()
	if err != nil {
		t.Fatal(err)
	}
	if len(relays) != 2 || relays[1] != "127.0.0.1:6001" || relays[3] != "127.0.0.1:5003" {
		t.Errorf("relays = %v", relays)
	}
}

func TestDrainingRelayExcludedFromDirectory(t *testing.T) {
	_, c := testServer(t, &recordingStrategy{})
	if err := c.RegisterRelay(1, "127.0.0.1:5001"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterRelay(2, "127.0.0.1:5002"); err != nil {
		t.Fatal(err)
	}
	// Relay 1 heartbeats in drain mode: still registered, but invisible
	// to callers enumerating candidates.
	if err := c.HeartbeatRelay(1, "127.0.0.1:5001", true); err != nil {
		t.Fatal(err)
	}
	relays, err := c.Relays()
	if err != nil {
		t.Fatal(err)
	}
	if len(relays) != 1 || relays[2] != "127.0.0.1:5002" {
		t.Errorf("directory with draining relay = %v, want only relay 2", relays)
	}
	// Drain is reversible: a plain heartbeat restores the relay.
	if err := c.HeartbeatRelay(1, "127.0.0.1:5001", false); err != nil {
		t.Fatal(err)
	}
	relays, err = c.Relays()
	if err != nil {
		t.Fatal(err)
	}
	if len(relays) != 2 {
		t.Errorf("directory after drain cleared = %v, want both relays", relays)
	}
}

func TestChooseRoundTrip(t *testing.T) {
	strat := &recordingStrategy{ret: netsim.TransitOption(2, 5)}
	_, c := testServer(t, strat)
	cands := []netsim.Option{netsim.DirectOption(), netsim.BounceOption(1), netsim.TransitOption(2, 5)}
	got, err := c.Choose(10, 20, cands)
	if err != nil {
		t.Fatal(err)
	}
	if got != netsim.TransitOption(2, 5) {
		t.Errorf("chose %v", got)
	}
	if len(strat.chooseCalls) != 1 {
		t.Fatalf("strategy saw %d choose calls", len(strat.chooseCalls))
	}
	if strat.chooseCalls[0].Src != 10 || strat.chooseCalls[0].Dst != 20 {
		t.Errorf("call = %+v", strat.chooseCalls[0])
	}
	if len(strat.chooseCands[0]) != 3 || strat.chooseCands[0][2] != netsim.TransitOption(2, 5) {
		t.Errorf("candidates = %v", strat.chooseCands[0])
	}
}

func TestReportRoundTrip(t *testing.T) {
	strat := &recordingStrategy{}
	_, c := testServer(t, strat)
	m := quality.Metrics{RTTMs: 222, LossRate: 0.02, JitterMs: 7}
	if err := c.Report(10, 20, netsim.BounceOption(4), m); err != nil {
		t.Fatal(err)
	}
	if len(strat.observeCalls) != 1 {
		t.Fatalf("strategy saw %d observes", len(strat.observeCalls))
	}
	if strat.observeOpts[0] != netsim.BounceOption(4) || strat.observeM[0] != m {
		t.Errorf("observed %v %v", strat.observeOpts[0], strat.observeM[0])
	}
}

func TestReportRejectsInvalidMetrics(t *testing.T) {
	strat := &recordingStrategy{}
	_, c := testServer(t, strat)
	err := c.Report(1, 2, netsim.DirectOption(), quality.Metrics{RTTMs: -5})
	if err == nil {
		t.Fatal("invalid metrics accepted")
	}
	if len(strat.observeCalls) != 0 {
		t.Error("invalid report reached the strategy")
	}
}

func TestStats(t *testing.T) {
	strat := &recordingStrategy{ret: netsim.DirectOption()}
	_, c := testServer(t, strat)
	c.RegisterRelay(1, "a:1")
	c.Choose(1, 2, []netsim.Option{netsim.DirectOption()})
	c.Report(1, 2, netsim.DirectOption(), quality.Metrics{RTTMs: 10})
	c.Report(1, 2, netsim.DirectOption(), quality.Metrics{RTTMs: 10})
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Relays != 1 || st.Chooses != 1 || st.Reports != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBadJSONRejected(t *testing.T) {
	s := New(Config{Strategy: &recordingStrategy{}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/choose", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestRegisterRequiresAddr(t *testing.T) {
	_, c := testServer(t, &recordingStrategy{})
	if err := c.RegisterRelay(1, ""); err == nil {
		t.Error("empty addr accepted")
	}
}

func TestTimeScaleAdvancesVirtualClock(t *testing.T) {
	strat := &recordingStrategy{ret: netsim.DirectOption()}
	_, c := testServer(t, strat) // 1s real = 1h virtual
	c.Choose(1, 2, []netsim.Option{netsim.DirectOption()})
	if len(strat.chooseCalls) != 1 {
		t.Fatal("no choose")
	}
	if h := strat.chooseCalls[0].THours; h < 0 || h > 24 {
		t.Errorf("virtual hours = %v; expected under a virtual day just after start", h)
	}
}

func TestWithRealViaStrategy(t *testing.T) {
	// End-to-end: controller + real Via strategy, feed reports, choose.
	via := core.NewVia(core.DefaultViaConfig(quality.RTT), nil)
	_, c := testServer(t, via)
	cands := []netsim.Option{netsim.DirectOption(), netsim.BounceOption(1), netsim.BounceOption(2)}
	good := quality.Metrics{RTTMs: 50, LossRate: 0.001, JitterMs: 1}
	for i := 0; i < 30; i++ {
		if err := c.Report(1, 2, netsim.BounceOption(1), good); err != nil {
			t.Fatal(err)
		}
	}
	opt, err := c.Choose(1, 2, cands)
	if err != nil {
		t.Fatal(err)
	}
	// Any valid candidate is acceptable; the point is no panic and a
	// well-formed response through the whole stack.
	found := false
	for _, cd := range cands {
		if cd == opt {
			found = true
		}
	}
	if !found {
		t.Errorf("chose %v, not among candidates", opt)
	}
}

func TestNewPanicsWithoutStrategy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil strategy accepted")
		}
	}()
	New(Config{})
}

func TestRelayTTLExpiry(t *testing.T) {
	s := New(Config{Strategy: &recordingStrategy{}, RelayTTL: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	if err := c.RegisterRelay(1, "127.0.0.1:9001"); err != nil {
		t.Fatal(err)
	}
	if relays, _ := c.Relays(); len(relays) != 1 {
		t.Fatalf("fresh relay missing: %v", relays)
	}
	time.Sleep(80 * time.Millisecond)
	if relays, _ := c.Relays(); len(relays) != 0 {
		t.Errorf("expired relay still listed: %v", relays)
	}
	// A heartbeat (re-registration) revives it.
	if err := c.RegisterRelay(1, "127.0.0.1:9001"); err != nil {
		t.Fatal(err)
	}
	if relays, _ := c.Relays(); len(relays) != 1 {
		t.Error("revived relay missing")
	}
}

func TestTopKEndpoint(t *testing.T) {
	via := core.NewVia(core.DefaultViaConfig(quality.RTT), nil)
	_, c := testServer(t, via)
	c.RegisterRelay(1, "127.0.0.1:9001")
	c.RegisterRelay(2, "127.0.0.1:9002")
	// Feed enough history for predictions.
	for i := 0; i < 30; i++ {
		c.Report(1, 2, netsim.BounceOption(1), quality.Metrics{RTTMs: 80, LossRate: 0.001, JitterMs: 1})
		c.Report(1, 2, netsim.DirectOption(), quality.Metrics{RTTMs: 200, LossRate: 0.005, JitterMs: 3})
	}
	// Advance past an epoch so the predictor trains (1s real = 1h virtual;
	// epochs are 24h → use choose to trigger... instead verify the endpoint
	// shape, which works regardless of training state).
	resp, err := http.Get(c.Base + "/v1/topk?src=1&dst=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var tk transport.TopKResponse
	if err := json.NewDecoder(resp.Body).Decode(&tk); err != nil {
		t.Fatal(err)
	}
	if tk.Src != 1 || tk.Dst != 2 || tk.Metric != "rtt" {
		t.Errorf("topk response = %+v", tk)
	}

	// Bad params and wrong strategy type.
	resp2, _ := http.Get(c.Base + "/v1/topk?src=x&dst=2")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad params status %d", resp2.StatusCode)
	}
	_, c2 := testServer(t, &recordingStrategy{})
	resp3, _ := http.Get(c2.Base + "/v1/topk?src=1&dst=2")
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("non-via strategy status %d", resp3.StatusCode)
	}
}

// panicStrategy blows up on demand — the bad-request-takes-down-selection
// scenario the recovery middleware exists for.
type panicStrategy struct{ recordingStrategy }

func (p *panicStrategy) Choose(core.Call, []netsim.Option) netsim.Option {
	panic("strategy edge case")
}

func TestHealthEndpoint(t *testing.T) {
	_, c := testServer(t, &recordingStrategy{})
	c.RegisterRelay(1, "127.0.0.1:9001")
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Relays != 1 || h.Draining {
		t.Errorf("health = %+v", h)
	}
	if h.UptimeSec < 0 {
		t.Errorf("uptime = %v", h.UptimeSec)
	}
}

func TestHealthCountsOnlyLiveRelays(t *testing.T) {
	s := New(Config{Strategy: &recordingStrategy{}, RelayTTL: 40 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	c.RegisterRelay(1, "127.0.0.1:9001")
	time.Sleep(60 * time.Millisecond)
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Relays != 0 {
		t.Errorf("health counts lapsed relay: %+v", h)
	}
}

func TestPanicRecoveryIsolatesBadRequest(t *testing.T) {
	s, c := testServer(t, &panicStrategy{})
	// The panicking request must come back as a 500, not kill the server.
	_, err := c.Choose(1, 2, []netsim.Option{netsim.BounceOption(1)})
	if err == nil {
		t.Fatal("panicking choose reported success")
	}
	if n, stack := s.recoveredPanics(); n == 0 || stack == "" {
		t.Errorf("panic not recorded: n=%d stack=%q", n, stack)
	}
	// The server must still answer other traffic.
	if _, err := c.Stats(); err != nil {
		t.Errorf("server dead after recovered panic: %v", err)
	}
}

func TestChooseEmptyCandidatesReturnsDirect(t *testing.T) {
	strat := &recordingStrategy{ret: netsim.BounceOption(9)}
	_, c := testServer(t, strat)
	opt, err := c.Choose(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opt != netsim.DirectOption() {
		t.Errorf("empty candidates chose %v, want direct", opt)
	}
	if len(strat.chooseCalls) != 0 {
		t.Error("strategy saw an empty candidate set")
	}
}

func TestShutdownDrainsInflight(t *testing.T) {
	release := make(chan struct{})
	strat := &recordingStrategy{ret: netsim.DirectOption()}
	s := New(Config{Strategy: &slowStrategy{inner: strat, release: release}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	// Start a request that blocks inside the strategy.
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		close(started)
		_, err := c.Choose(1, 2, []netsim.Option{netsim.DirectOption()})
		errc <- err
	}()
	<-started
	time.Sleep(30 * time.Millisecond) // let the request reach the strategy

	// Shutdown must wait for it.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	select {
	case <-done:
		t.Fatal("Shutdown returned while a request was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; err != nil {
		t.Errorf("in-flight choose failed during drain: %v", err)
	}

	// New requests are refused while draining.
	if _, err := c.Stats(); err == nil {
		t.Error("request accepted after shutdown")
	}
}

// slowStrategy blocks Choose until released, to hold a request in flight.
type slowStrategy struct {
	inner   core.Strategy
	release chan struct{}
}

func (s *slowStrategy) Name() string { return "slow" }
func (s *slowStrategy) Choose(c core.Call, cands []netsim.Option) netsim.Option {
	<-s.release
	return s.inner.Choose(c, cands)
}
func (s *slowStrategy) Observe(c core.Call, o netsim.Option, m quality.Metrics) {
	s.inner.Observe(c, o, m)
}

func TestShutdownTimesOutOnStuckRequest(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Strategy: &slowStrategy{inner: &recordingStrategy{ret: netsim.DirectOption()}, release: release}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Unblock the stuck handler before ts.Close waits on it (defers LIFO).
	defer close(release)
	c := NewClient(ts.URL)
	c.Retry.Timeout = 5 * time.Second // outlive the shutdown deadline
	go c.Choose(1, 2, []netsim.Option{netsim.DirectOption()})
	time.Sleep(30 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Error("Shutdown returned nil with a stuck request")
	}
}

// fakeControl is a controller faking what the retry, breaker and failover
// tests need: every control-stream message is answered by msg, and every
// plain HTTP request (the cold endpoints) by h, when h is set.
func fakeControl(t *testing.T, msg MessageFunc, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	ss := NewStreamServer(msg, nil)
	mux := http.NewServeMux()
	mux.Handle("GET "+transport.ControlPath, ss)
	if h != nil {
		mux.Handle("/", h)
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ss.Close()
		ts.Close()
	})
	return ts
}

// answer is a MessageFunc answering every message with status and text.
func answer(status int, text string) MessageFunc {
	return func(_ transport.Op, _, _ int32, _ []byte, _ <-chan struct{}, out []byte) (int, []byte) {
		return status, append(out, text...)
	}
}

func TestClientRetriesTransientFailure(t *testing.T) {
	// Fail the first two attempts with 503, then succeed: the client's
	// bounded retry budget must ride it out.
	var hits atomic.Int32
	inner := New(Config{Strategy: &recordingStrategy{ret: netsim.BounceOption(2)}})
	ts := fakeControl(t, func(op transport.Op, src, dst int32, body []byte, done <-chan struct{}, out []byte) (int, []byte) {
		if hits.Add(1) <= 2 {
			return http.StatusServiceUnavailable, append(out, "flap"...)
		}
		return inner.serveMessage(op, src, dst, body, done, out)
	}, nil)
	c := NewClient(ts.URL)
	c.Retry.BaseDelay = 5 * time.Millisecond
	opt, err := c.Choose(1, 2, []netsim.Option{netsim.BounceOption(2)})
	if err != nil {
		t.Fatalf("choose through flap: %v", err)
	}
	if opt != netsim.BounceOption(2) {
		t.Errorf("chose %v", opt)
	}
	if c.Retries() != 2 {
		t.Errorf("retries = %d, want 2", c.Retries())
	}
}

func TestClientExhaustsRetryBudget(t *testing.T) {
	ts := fakeControl(t, answer(http.StatusServiceUnavailable, "down"), nil)
	c := NewClient(ts.URL)
	c.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Timeout: time.Second}
	_, err := c.Choose(1, 2, []netsim.Option{netsim.DirectOption()})
	if err == nil {
		t.Fatal("choose succeeded against a dead controller")
	}
	if c.Retries() != 2 {
		t.Errorf("retries = %d, want 2 (3 attempts)", c.Retries())
	}
}

func TestClientDoesNotRetryBadRequest(t *testing.T) {
	var hits atomic.Int32
	ts := fakeControl(t, func(_ transport.Op, _, _ int32, _ []byte, _ <-chan struct{}, out []byte) (int, []byte) {
		hits.Add(1)
		return http.StatusBadRequest, append(out, "nope"...)
	}, nil)
	c := NewClient(ts.URL)
	if _, err := c.Choose(1, 2, []netsim.Option{netsim.DirectOption()}); err == nil {
		t.Fatal("bad request reported success")
	}
	if hits.Load() != 1 {
		t.Errorf("client retried a 400: %d attempts", hits.Load())
	}
}

// TestUpgradeRefusalSurfacesStatus: an endpoint that refuses the control
// stream's upgrade with status S (an older controller answers 404, a
// shedding proxy 503) is judged by S exactly as a response frame carrying S
// would be: a 4xx is not retried, a 503 is.
func TestUpgradeRefusalSurfacesStatus(t *testing.T) {
	for _, tc := range []struct {
		status int
		hits   int32
	}{{http.StatusBadRequest, 1}, {http.StatusNotFound, 1}, {http.StatusServiceUnavailable, 3}} {
		var hits atomic.Int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			hits.Add(1)
			http.Error(w, "refused", tc.status)
		}))
		c := NewClient(ts.URL)
		c.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Timeout: time.Second}
		_, err := c.Choose(1, 2, []netsim.Option{netsim.DirectOption()})
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(tc.status)) {
			t.Errorf("upgrade refused with %d: error %v, want the status in it", tc.status, err)
		}
		if hits.Load() != tc.hits {
			t.Errorf("upgrade refused with %d: %d attempts, want %d", tc.status, hits.Load(), tc.hits)
		}
	}
}

func TestClientTimeoutAppliesPerAttempt(t *testing.T) {
	block := make(chan struct{})
	ts := fakeControl(t, func(_ transport.Op, _, _ int32, _ []byte, _ <-chan struct{}, out []byte) (int, []byte) {
		<-block
		return http.StatusOK, out
	}, func(http.ResponseWriter, *http.Request) {
		<-block
	})
	// Unblock the stuck handlers before the server closes (cleanups run
	// after defers).
	defer close(block)
	policy := RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Timeout: 50 * time.Millisecond}
	c := NewClient(ts.URL)
	c.Retry = policy

	// A controller that answers the upgrade and then the message each
	// within Timeout, but not both: one attempt is one deadline.
	const half = 35 * time.Millisecond
	ss := NewStreamServer(func(_ transport.Op, _, _ int32, _ []byte, _ <-chan struct{}, out []byte) (int, []byte) {
		time.Sleep(half)
		out, err := transport.AppendDecision(out, netsim.DirectOption(), "")
		if err != nil {
			t.Error(err)
		}
		return http.StatusOK, out
	}, nil)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(half)
		ss.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ss.Close()
		slow.Close()
	})
	sc := NewClient(slow.URL)
	sc.Retry = policy

	for _, carrier := range []struct {
		name string
		call func() error
	}{
		{"HTTP", func() error { _, err := c.Stats(); return err }},
		{"control stream", func() error { _, err := c.Choose(1, 2, []netsim.Option{netsim.DirectOption()}); return err }},
		{"slow upgrade, then slow answer", func() error { _, err := sc.Choose(1, 2, []netsim.Option{netsim.DirectOption()}); return err }},
	} {
		start := time.Now()
		if err := carrier.call(); err == nil {
			t.Fatalf("%s: hung server reported success", carrier.name)
		}
		if el := time.Since(start); el > time.Second {
			t.Errorf("%s: deadline not applied: took %s", carrier.name, el)
		}
	}
}

func TestRelayTTLReRegistrationLoop(t *testing.T) {
	// A relay heartbeating faster than the TTL stays continuously listed;
	// the instant heartbeats stop it lapses; a late heartbeat revives it
	// with a fresh address.
	s := New(Config{Strategy: &recordingStrategy{}, RelayTTL: 60 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	for i := 0; i < 4; i++ {
		if err := c.RegisterRelay(7, "127.0.0.1:9007"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		if relays, _ := c.Relays(); len(relays) != 1 {
			t.Fatalf("heartbeating relay lapsed at beat %d", i)
		}
	}
	time.Sleep(90 * time.Millisecond)
	if relays, _ := c.Relays(); len(relays) != 0 {
		t.Fatal("relay survived heartbeat stop")
	}
	// Revival re-announces a new media address (a restarted process).
	if err := c.RegisterRelay(7, "127.0.0.1:9107"); err != nil {
		t.Fatal(err)
	}
	relays, _ := c.Relays()
	if relays[7] != "127.0.0.1:9107" {
		t.Errorf("revived relay addr = %v", relays)
	}
}

func TestRegisterSweepsLongLapsedRelays(t *testing.T) {
	s := New(Config{Strategy: &recordingStrategy{}, RelayTTL: 20 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	c.RegisterRelay(1, "127.0.0.1:9001")
	time.Sleep(50 * time.Millisecond) // > 2×TTL
	c.RegisterRelay(2, "127.0.0.1:9002")
	s.mu.RLock()
	_, stale := s.relays[1]
	n := len(s.relays)
	s.mu.RUnlock()
	if stale || n != 1 {
		t.Errorf("lapsed relay not swept: relays=%d stale=%v", n, stale)
	}
}

func TestTopKExcludesLapsedRelays(t *testing.T) {
	via := core.NewVia(core.DefaultViaConfig(quality.RTT), nil)
	s := New(Config{Strategy: via, RelayTTL: 40 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	c.RegisterRelay(1, "127.0.0.1:9001")
	time.Sleep(60 * time.Millisecond) // relay 1 lapses
	c.RegisterRelay(2, "127.0.0.1:9002")

	resp, err := http.Get(c.Base + "/v1/topk?src=1&dst=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tk transport.TopKResponse
	if err := json.NewDecoder(resp.Body).Decode(&tk); err != nil {
		t.Fatal(err)
	}
	for _, e := range tk.TopK {
		if e.Option.Kind == "bounce" && e.Option.R1 == 1 {
			t.Error("topk recommends a lapsed relay")
		}
	}
}

// recoveredPanics returns how many handler panics have been recovered,
// and the stack of the most recent one.
func (s *Server) recoveredPanics() (int64, string) {
	stack, _ := s.lastPanic.Load().(string)
	return s.panics.Load(), stack
}
