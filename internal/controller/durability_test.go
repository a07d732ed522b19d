package controller

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/transport"
)

// fakeClock is a manually-stepped wall clock, shared by every server in a
// test so their virtual (algorithm-time) clocks advance in lockstep.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2016, 8, 22, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// synthMetrics generates a deterministic quality sample as a function of
// the call index and the chosen option, so reference and recovered runs
// can be fed byte-identical observations.
func synthMetrics(i int, opt netsim.Option) quality.Metrics {
	h := i*31 + int(opt.R1)*17 + int(opt.R2)*7
	if opt.Kind == netsim.Direct {
		h = i * 29
	}
	return quality.Metrics{
		RTTMs:    40 + float64(h%220),
		LossRate: float64(h%13) / 400,
		JitterMs: 1 + float64(h%17)/2,
	}
}

func testCands() []netsim.Option {
	return []netsim.Option{
		netsim.DirectOption(),
		netsim.BounceOption(1),
		netsim.BounceOption(2),
		netsim.TransitOption(1, 2),
	}
}

// TestDurableCrashRecoveryDeterministic is the tentpole acceptance test:
// a durable controller is crashed (Close) and reopened mid-run — restoring
// the latest snapshot and replaying the WAL tail — and from then on must
// produce the exact Choose stream of an uninterrupted in-memory reference
// controller fed the identical request sequence.
//
// The call step is a deliberately boundary-unfriendly 97ms (0.097 virtual
// hours) so no call lands on an exact epoch/window edge where the two
// runs' last-ulp float differences could legitimately floor() apart.
func TestDurableCrashRecoveryDeterministic(t *testing.T) {
	const total = 600
	restarts := map[int]bool{220: true, 470: true}
	clk := newFakeClock()
	dir := t.TempDir()

	newDurable := func() (*Server, *httptest.Server, *Client) {
		s, err := Open(Config{
			Strategy:        core.NewVia(core.DefaultViaConfig(quality.RTT), nil),
			TimeScale:       3600, // 1s wall = 1h algorithm time
			WALDir:          dir,
			WALSyncInterval: -1, // sync every append: the crash loses nothing
			SnapshotEvery:   64, // force snapshot+replay both to participate
			Clock:           clk.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		return s, ts, NewClient(ts.URL)
	}

	ref := New(Config{
		Strategy:  core.NewVia(core.DefaultViaConfig(quality.RTT), nil),
		TimeScale: 3600,
		Clock:     clk.Now,
	})
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	refC := NewClient(refTS.URL)

	s, ts, c := newDurable()
	cands := testCands()
	for i := 0; i < total; i++ {
		if restarts[i] {
			// Crash: drop the HTTP front end and the WAL handle, then come
			// back from disk. The fake clock does not advance during the
			// outage, mirroring the reference's view of time.
			ts.Close()
			if err := s.Close(); err != nil {
				t.Fatalf("close before restart at call %d: %v", i, err)
			}
			s, ts, c = newDurable()
			if st := s.State(); st != StateReady {
				t.Fatalf("reopened server state = %q", st)
			}
		}
		clk.Advance(97 * time.Millisecond)
		src, dst := int32(3+i%5), int32(9+i%7)
		got, err := c.Choose(src, dst, cands)
		if err != nil {
			t.Fatalf("call %d: durable choose: %v", i, err)
		}
		want, err := refC.Choose(src, dst, cands)
		if err != nil {
			t.Fatalf("call %d: reference choose: %v", i, err)
		}
		if got != want {
			t.Fatalf("call %d: recovered run chose %v, reference chose %v", i, got, want)
		}
		m := synthMetrics(i, got)
		if err := c.Report(src, dst, got, m); err != nil {
			t.Fatalf("call %d: durable report: %v", i, err)
		}
		if err := refC.Report(src, dst, want, m); err != nil {
			t.Fatalf("call %d: reference report: %v", i, err)
		}
	}
	if lsn := s.AppliedLSN(); lsn == 0 {
		t.Fatal("durable server applied no WAL records")
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFreshAndReadiness: a fresh durable controller boots straight to
// ready/primary under term 1, and the readiness probe distinguishes it
// from a standby.
func TestOpenFreshAndReadiness(t *testing.T) {
	s, err := Open(Config{
		Strategy: core.NewVia(core.DefaultViaConfig(quality.RTT), nil),
		WALDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.State() != StateReady || s.Role() != RolePrimary || s.Term() != 1 {
		t.Fatalf("fresh open: state=%q role=%q term=%d", s.State(), s.Role(), s.Term())
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz on ready primary = %d", resp.StatusCode)
	}
}

// TestOpenReportsRecovery: a restart publishes what it cost — the records
// replayed behind the latest snapshot, and the wall time taken.
func TestOpenReportsRecovery(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	open := func(reg *obs.Registry) *Server {
		t.Helper()
		s, err := Open(Config{
			Strategy:        core.NewVia(core.DefaultViaConfig(quality.RTT), nil),
			TimeScale:       3600,
			WALDir:          dir,
			WALSyncInterval: -1,
			SnapshotEvery:   -1, // only the forced snapshot below
			Clock:           clk.Now,
			Metrics:         reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open(nil)
	ts := httptest.NewServer(s.Handler())
	c := NewClient(ts.URL)
	drive20(t, clk, c)
	covered, _, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	drive20(t, clk, c)
	after := s.AppliedLSN() - covered
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if after < 40 {
		t.Fatalf("%d records after the snapshot; 20 calls log at least 40", after)
	}

	reg := obs.NewRegistry()
	s2 := open(reg)
	defer s2.Close()
	m := reg.Snapshot()
	if got := m["via_controller_recovery_records"]; got != float64(after) {
		t.Fatalf("via_controller_recovery_records = %v, want the %d records logged after the snapshot", got, after)
	}
	if got := m["via_controller_recovery_seconds"]; got <= 0 {
		t.Fatalf("via_controller_recovery_seconds = %v, want > 0", got)
	}
}

// TestOpenRejectsStatelessStrategy: durability without snapshot support is
// a configuration error, caught at Open. Replay re-executes every decision
// against the strategy, so one that cannot save and load its state could
// not be recovered.
func TestOpenRejectsStatelessStrategy(t *testing.T) {
	strat := &recordingStrategy{}
	_, err := Open(Config{Strategy: strat, WALDir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "does not implement StatefulStrategy") {
		t.Errorf("Open(%s) = %v, want the StatefulStrategy refusal", strat.Name(), err)
	}
}

// startPrimary opens a durable primary with an httptest front end.
func startPrimary(t *testing.T, dir string, clk *fakeClock, snapshotEvery int) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s, err := Open(Config{
		Strategy:          core.NewVia(core.DefaultViaConfig(quality.RTT), nil),
		TimeScale:         3600,
		WALDir:            dir,
		WALSyncInterval:   -1,
		SnapshotEvery:     snapshotEvery,
		LeaseTimeout:      400 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		Clock:             clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts, NewClient(ts.URL)
}

// startStandby opens a warm standby tailing primaryURL.
func startStandby(t *testing.T, dir, primaryURL string, clk *fakeClock, autoPromote bool) *Server {
	t.Helper()
	s, err := Open(Config{
		Strategy:          core.NewVia(core.DefaultViaConfig(quality.RTT), nil),
		TimeScale:         3600,
		WALDir:            dir,
		WALSyncInterval:   -1,
		SnapshotEvery:     -1,
		StandbyOf:         primaryURL,
		LeaseTimeout:      400 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		AutoPromote:       autoPromote,
		Clock:             clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestStandbyReplicatesAndPromotes: a standby tails the primary's WAL,
// refuses decision traffic while standing by, and after an explicit
// promotion serves decisions from the replicated state.
func TestStandbyReplicatesAndPromotes(t *testing.T) {
	clk := newFakeClock()
	p, pts, pc := startPrimary(t, t.TempDir(), clk, -1)
	defer pts.Close()

	// Seed the primary with traffic before and after the standby attaches,
	// covering both the catch-up scan and the live tail.
	cands := testCands()
	drive := func(c *Client, lo, hi int) {
		for i := lo; i < hi; i++ {
			clk.Advance(97 * time.Millisecond)
			src, dst := int32(3+i%5), int32(9+i%7)
			opt, err := c.Choose(src, dst, cands)
			if err != nil {
				t.Fatalf("call %d: choose: %v", i, err)
			}
			if err := c.Report(src, dst, opt, synthMetrics(i, opt)); err != nil {
				t.Fatalf("call %d: report: %v", i, err)
			}
		}
	}
	drive(pc, 0, 40)

	sb := startStandby(t, t.TempDir(), pts.URL, clk, false)
	defer sb.Close()
	sts := httptest.NewServer(sb.Handler())
	defer sts.Close()

	// Standby refuses decisions while standing by.
	if _, err := http.Post(sts.URL+"/v1/choose", "application/json", strings.NewReader("{}")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(sts.URL+"/v1/choose", "application/json", strings.NewReader(`{"src":1,"dst":2}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("standby served /v1/choose with %d", resp.StatusCode)
	}

	drive(pc, 40, 80)
	waitFor(t, 5*time.Second, "standby catch-up", func() bool {
		return sb.AppliedLSN() == p.AppliedLSN()
	})
	if sb.Term() != p.Term() {
		t.Fatalf("standby term %d, primary term %d", sb.Term(), p.Term())
	}

	// Primary dies; operator promotes the standby over HTTP.
	pts.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	presp, err := http.Post(sts.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pr transport.PromoteResponse
	if err := jsonDecode(presp.Body, &pr); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if !pr.OK || pr.Role != RolePrimary {
		t.Fatalf("promote response %+v", pr)
	}
	if sb.State() != StateReady || sb.Role() != RolePrimary || sb.Term() != pr.Term {
		t.Fatalf("after promote: state=%q role=%q term=%d", sb.State(), sb.Role(), sb.Term())
	}
	// The promoted standby serves decisions from the replicated state.
	sc := NewClient(sts.URL)
	drive(sc, 80, 100)
}

// TestStandbyAutoPromotesOnLeaseLapse: with AutoPromote, the standby takes
// over by itself once the primary goes silent past LeaseTimeout.
func TestStandbyAutoPromotesOnLeaseLapse(t *testing.T) {
	clk := newFakeClock()
	p, pts, pc := startPrimary(t, t.TempDir(), clk, -1)
	drive20(t, clk, pc)

	sb := startStandby(t, t.TempDir(), pts.URL, clk, true)
	defer sb.Close()
	waitFor(t, 5*time.Second, "standby catch-up", func() bool {
		return sb.AppliedLSN() == p.AppliedLSN()
	})
	oldTerm := sb.Term()

	// Kill the primary without warning (kill -9 equivalent: the listener
	// vanishes; nothing is drained or handed over).
	pts.CloseClientConnections()
	pts.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "auto-promotion", func() bool {
		return sb.Role() == RolePrimary && sb.State() == StateReady
	})
	if sb.Term() <= oldTerm {
		t.Fatalf("promotion did not advance the term: %d -> %d", oldTerm, sb.Term())
	}
}

// TestStandbyBootstrapsFromSnapshot: a standby whose cursor pre-dates the
// primary's retained WAL (truncated behind a snapshot) bootstraps from
// /v1/wal/snapshot and then tails normally.
func TestStandbyBootstrapsFromSnapshot(t *testing.T) {
	clk := newFakeClock()
	p, pts, pc := startPrimary(t, t.TempDir(), clk, -1)
	defer pts.Close()
	drive20(t, clk, pc)

	// Snapshot + truncate so LSN 1 is gone: a fresh standby must take the
	// 410 path.
	if _, _, err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	drive20(t, clk, pc)

	sb := startStandby(t, t.TempDir(), pts.URL, clk, false)
	defer sb.Close()
	waitFor(t, 5*time.Second, "standby bootstrap+catch-up", func() bool {
		return sb.AppliedLSN() == p.AppliedLSN()
	})
	if sb.Term() != p.Term() {
		t.Fatalf("standby term %d, primary term %d", sb.Term(), p.Term())
	}
}

func drive20(t *testing.T, clk *fakeClock, c *Client) {
	t.Helper()
	cands := testCands()
	for i := 0; i < 20; i++ {
		clk.Advance(97 * time.Millisecond)
		src, dst := int32(3+i%5), int32(9+i%7)
		opt, err := c.Choose(src, dst, cands)
		if err != nil {
			t.Fatalf("call %d: choose: %v", i, err)
		}
		if err := c.Report(src, dst, opt, synthMetrics(i, opt)); err != nil {
			t.Fatalf("call %d: report: %v", i, err)
		}
	}
}

// sleepStrategy holds every Choose for a fixed time — the overload victim.
type sleepStrategy struct {
	delay time.Duration
	calls atomic.Int64
}

func (s *sleepStrategy) Name() string { return "sleep" }
func (s *sleepStrategy) Choose(core.Call, []netsim.Option) netsim.Option {
	s.calls.Add(1)
	time.Sleep(s.delay)
	return netsim.DirectOption()
}
func (s *sleepStrategy) Observe(core.Call, netsim.Option, quality.Metrics) {}

// TestOverloadShedsBoundedLatency: with admission control on, a 10×
// overload is shed with 503 + Retry-After instead of queueing without
// bound — served requests keep a bounded p99, the shed counter moves, and
// nothing panics.
func TestOverloadShedsBoundedLatency(t *testing.T) {
	reg := obs.NewRegistry()
	strat := &sleepStrategy{delay: 20 * time.Millisecond}
	s := New(Config{
		Strategy: strat,
		Metrics:  reg,
		Admission: AdmissionConfig{
			MaxConcurrent: 2,
			MaxWaiting:    4,
			QueueTimeout:  30 * time.Millisecond,
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const attackers = 60
	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	latencies := make([]time.Duration, attackers)
	body := `{"src":1,"dst":2,"candidates":[{"kind":"direct"},{"kind":"bounce","r1":1}]}`
	for i := 0; i < attackers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resp, err := http.Post(ts.URL+"/v1/choose", "application/json", strings.NewReader(body))
			latencies[i] = time.Since(start)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusServiceUnavailable:
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("request %d: shed without Retry-After", i)
				}
				shed.Add(1)
			default:
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	if shed.Load() == 0 {
		t.Fatal("10x overload shed nothing")
	}
	if ok.Load() == 0 {
		t.Fatal("admission control starved every request")
	}
	if panics, stack := s.recoveredPanics(); panics != 0 {
		t.Fatalf("%d panics under overload:\n%s", panics, stack)
	}
	// Every request — served or shed — must resolve within a small multiple
	// of (queue timeout + max queue depth × service time): the pile-up is
	// bounded by construction, not by luck.
	worst := time.Duration(0)
	for _, l := range latencies {
		if l > worst {
			worst = l
		}
	}
	if limit := 2 * time.Second; worst > limit {
		t.Fatalf("worst-case latency %v exceeds bound %v", worst, limit)
	}
	snap := reg.Snapshot()
	if snap[`via_controller_shed_requests_total{endpoint="choose"}`] == 0 {
		t.Fatalf("shed counter not exported; snapshot: %v", snap)
	}
}

// jsonDecode decodes one JSON response body.
func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}
