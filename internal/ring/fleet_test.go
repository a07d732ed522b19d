package ring

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/quality"
	"repro/internal/transport"
)

// constClock freezes algorithm time so a fleet shard and a reference
// controller make byte-identical decisions (nowHours stays 0 for both).
func constClock() func() time.Time {
	t0 := time.Date(2016, 8, 22, 0, 0, 0, 0, time.UTC)
	return func() time.Time { return t0 }
}

func soakViaConfig(seed uint64) core.ViaConfig {
	cfg := core.DefaultViaConfig(quality.RTT)
	cfg.Budget = 0.8
	cfg.Seed = seed
	return cfg
}

// TestSingleShardDegeneratesByteIdentically drives the same sequential
// call stream through a 1-shard fleet and through a plain unsharded
// controller, then compares full strategy state bytes. A one-shard ring
// must be today's behavior exactly — same decisions, same RNG positions,
// same estimator states.
func TestSingleShardDegeneratesByteIdentically(t *testing.T) {
	work := newSoakWorkload(SoakConfig{Pairs: 24, ZipfS: 1.1, Relays: 4})

	fleet, err := NewFleet(FleetConfig{
		Shards:      1,
		WALRoot:     t.TempDir(),
		NewStrategy: func() core.Strategy { return core.NewVia(soakViaConfig(7), nil) },
		Clock:       constClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	plain := controller.New(controller.Config{
		Strategy: core.NewVia(soakViaConfig(7), nil),
		Clock:    constClock(),
	})
	ts := httptest.NewServer(plain.Handler())
	defer ts.Close()

	ringClient := fleet.NewClient()
	plainClient := controller.NewClient(ts.URL)

	// Same pair sequence on both sides, strictly sequential.
	seq := make([]int, 0, 300)
	for i := 0; i < 300; i++ {
		seq = append(seq, (i*37)%24)
	}
	for _, pair := range seq {
		src, dst := work.groups(pair)
		opt, err := ringClient.Choose(src, dst, work.opts[pair])
		if err != nil {
			t.Fatalf("ring choose: %v", err)
		}
		if err := ringClient.Report(src, dst, opt, work.measure(pair, opt)); err != nil {
			t.Fatalf("ring report: %v", err)
		}
		popt, err := plainClient.Choose(src, dst, work.opts[pair])
		if err != nil {
			t.Fatalf("plain choose: %v", err)
		}
		if popt != opt {
			t.Fatalf("pair %d: ring chose %+v, plain chose %+v", pair, opt, popt)
		}
		if err := plainClient.Report(src, dst, popt, work.measure(pair, popt)); err != nil {
			t.Fatalf("plain report: %v", err)
		}
	}

	ringState, _, _, err := fleet.ShardState(0)
	if err != nil {
		t.Fatal(err)
	}
	plainState, err := plain.StrategyState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ringState, plainState) {
		t.Fatalf("single-shard ring state (%d bytes) differs from plain controller state (%d bytes)", len(ringState), len(plainState))
	}
}

// TestEpochStaleClientRedirects grows the ring under a client still
// holding the old map; the client must follow 307s, re-fetch the map,
// and lose no requests.
func TestEpochStaleClientRedirects(t *testing.T) {
	work := newSoakWorkload(SoakConfig{Pairs: 64, ZipfS: 1.1, Relays: 3})
	fleet, err := NewFleet(FleetConfig{
		Shards:      2,
		WALRoot:     t.TempDir(),
		NewStrategy: func() core.Strategy { return core.NewVia(soakViaConfig(3), nil) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	client := fleet.NewClient() // snapshots the epoch-1 map
	if err := fleet.AddShard(); err != nil {
		t.Fatal(err)
	}
	if got := fleet.Map().MapEpoch; got != 2 {
		t.Fatalf("map epoch after AddShard = %d, want 2", got)
	}

	// Drive every pair once under the stale map: pairs that moved to the
	// new shard 307 on first touch; nothing may fail.
	for pair := 0; pair < 64; pair++ {
		src, dst := work.groups(pair)
		opt, err := client.Choose(src, dst, work.opts[pair])
		if err != nil {
			t.Fatalf("choose pair %d: %v", pair, err)
		}
		if err := client.Report(src, dst, opt, work.measure(pair, opt)); err != nil {
			t.Fatalf("report pair %d: %v", pair, err)
		}
	}
	if client.Redirects() == 0 {
		t.Fatal("stale client never hit a 307; the redirect path went unexercised")
	}
	// After the first redirect the client refreshed its map; it must now
	// agree with the fleet.
	if got := client.Redirects(); got > 130 {
		t.Fatalf("client took %d redirects for 128 requests; map refresh is not sticking", got)
	}
}

// TestRedirectReachesPromotedReplica pins the nastiest stale-map corner:
// a client holding the pre-growth map 307s toward a shard whose primary
// is already dead and whose standby is still mid-promotion. The redirect
// target refuses connections, the standby answers 503 until its
// promotion lands — and the client's retry budget must carry the request
// across that whole window to the promoted replica without losing it.
func TestRedirectReachesPromotedReplica(t *testing.T) {
	work := newSoakWorkload(SoakConfig{Pairs: 64, ZipfS: 1.1, Relays: 3})
	fleet, err := NewFleet(FleetConfig{
		Shards:      2,
		WALRoot:     t.TempDir(),
		NewStrategy: func() core.Strategy { return core.NewVia(soakViaConfig(13), nil) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	client := fleet.NewClient() // snapshots the epoch-1 map
	client.Retry = controller.RetryPolicy{
		MaxAttempts: 12,
		BaseDelay:   25 * time.Millisecond,
		MaxDelay:    200 * time.Millisecond,
		Timeout:     2 * time.Second,
	}
	if err := fleet.AddShard(); err != nil {
		t.Fatal(err)
	}
	const grown = 2
	m := fleet.Map()
	moved := -1
	for pair := 0; pair < 64; pair++ {
		src, dst := work.groups(pair)
		if m.OwnerShard(src, dst).ID == grown {
			moved = pair
			break
		}
	}
	if moved < 0 {
		t.Skip("no test pair moved to the new shard under this map (vnode layout)")
	}

	// Kill the new shard's primary now; promote its standby only after the
	// client has had time to chase the 307 into the dead primary and eat
	// the standby's pre-promotion 503s.
	if err := fleet.KillShard(grown); err != nil {
		t.Fatal(err)
	}
	promoted := make(chan error, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		promoted <- fleet.PromoteShardStandby(grown)
	}()

	src, dst := work.groups(moved)
	opt, err := client.Choose(src, dst, work.opts[moved])
	if err != nil {
		t.Fatalf("choose across kill+promote window: %v", err)
	}
	if err := client.Report(src, dst, opt, work.measure(moved, opt)); err != nil {
		t.Fatalf("report to promoted replica: %v", err)
	}
	if err := <-promoted; err != nil {
		t.Fatalf("promote: %v", err)
	}
	if client.Redirects() == 0 {
		t.Fatal("stale client never took a 307; the mid-promotion redirect path went unexercised")
	}

	// The decision must have been served by the promoted standby — the
	// primary died before the request and never came back.
	fleet.mu.Lock()
	sh := fleet.shards[grown]
	primN, stbyN := sh.gatePrim.Decisions(), sh.gateStby.Decisions()
	fleet.mu.Unlock()
	if primN != 0 {
		t.Fatalf("dead primary served %d decisions", primN)
	}
	if stbyN == 0 {
		t.Fatal("promoted standby served no decisions; the request landed somewhere else")
	}
}

// TestRebalanceDuringInflightChoose grows the ring while workers hammer
// it; zero request failures allowed, and the moved pairs' records must
// land on the new shard.
func TestRebalanceDuringInflightChoose(t *testing.T) {
	work := newSoakWorkload(SoakConfig{Pairs: 48, ZipfS: 1.0, Relays: 3})
	fleet, err := NewFleet(FleetConfig{
		Shards:      2,
		WALRoot:     t.TempDir(),
		NewStrategy: func() core.Strategy { return core.NewVia(soakViaConfig(11), nil) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	var failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := fleet.NewClient()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				pair := i % 48
				i++
				src, dst := work.groups(pair)
				opt, err := client.Choose(src, dst, work.opts[pair])
				if err != nil {
					failures.Add(1)
					continue
				}
				if err := client.Report(src, dst, opt, work.measure(pair, opt)); err != nil {
					failures.Add(1)
				}
			}
		}(g)
	}
	time.Sleep(150 * time.Millisecond)
	if err := fleet.AddShard(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed across the rebalance", n)
	}
	if fleet.Rebalances() != 1 {
		t.Fatalf("rebalances = %d, want 1", fleet.Rebalances())
	}
	// The new shard must own pairs and hold their replayed history.
	m := fleet.Map()
	owned := 0
	for pair := 0; pair < 48; pair++ {
		src, dst := work.groups(pair)
		if m.OwnerShard(src, dst).ID == 2 {
			owned++
		}
	}
	if owned == 0 {
		t.Skip("no test pair moved to the new shard under this map (vnode layout); ownership exercised elsewhere")
	}
	state, _, lsn, err := fleet.ShardState(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) == 0 || lsn == 0 {
		t.Fatalf("new shard has state=%dB lsn=%d; rebalance import left it empty", len(state), lsn)
	}
}

// TestFleetRouterServesMapAndHealth covers the router surface the
// clients bootstrap from.
func TestFleetRouterServesMapAndHealth(t *testing.T) {
	fleet, err := NewFleet(FleetConfig{
		Shards:      2,
		WALRoot:     t.TempDir(),
		NewStrategy: func() core.Strategy { return core.NewVia(soakViaConfig(5), nil) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	m, err := FetchMap(fleet.RouterURL())
	if err != nil {
		t.Fatal(err)
	}
	if m.MapEpoch != 1 || len(m.Shards) != 2 {
		t.Fatalf("router map epoch=%d shards=%d, want 1/2", m.MapEpoch, len(m.Shards))
	}
	resp, err := http.Get(fleet.RouterURL() + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router health status %d", resp.StatusCode)
	}
}

// TestFetchMapBoundedRead: FetchMap reads the map body under
// transport.MaxBodyBytes and returns read errors instead of decoding
// whatever arrived: an oversized body fails, and so does a body cut short
// mid-read even when the bytes that did arrive are a valid map.
func TestFetchMapBoundedRead(t *testing.T) {
	m, err := NewMap(0, Shard{ID: 0, URL: "http://s0"})
	if err != nil {
		t.Fatal(err)
	}
	valid, err := m.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	for name, serve := range map[string]http.HandlerFunc{
		"oversized": func(w http.ResponseWriter, _ *http.Request) {
			// Valid JSON padded past the bound, so only the bound rejects it.
			w.Write(append(append([]byte(nil), valid...), strings.Repeat(" ", transport.MaxBodyBytes)...))
		},
		"cut short": func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(valid)+100))
			w.Write(valid)
			conn, _, err := http.NewResponseController(w).Hijack()
			if err == nil {
				conn.Close()
			}
		},
	} {
		ts := httptest.NewServer(serve)
		if got, err := FetchMap(ts.URL); err == nil {
			t.Errorf("%s map body: FetchMap returned a map of epoch %d, want an error", name, got.MapEpoch)
		}
		ts.Close()
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(valid) }))
	defer ts.Close()
	if got, err := FetchMap(ts.URL); err != nil || got.MapEpoch != 1 {
		t.Fatalf("valid map body: %v, %v", got, err)
	}
}

// TestGateAndRouterServeControlStreams: a client with no map, pointed at a
// shard that does not own the pair, gets a 307 frame on its stream, follows
// it to the owner and is served there (the owner's gate counts the
// decision); a client on the router's URL gets the same 307 frame from the
// router's stream. Every decision lands exactly once.
func TestGateAndRouterServeControlStreams(t *testing.T) {
	work := newSoakWorkload(SoakConfig{Pairs: 8, ZipfS: 1.1, Relays: 3})
	fleet, err := NewFleet(FleetConfig{
		Shards:      2,
		WALRoot:     t.TempDir(),
		NewStrategy: func() core.Strategy { return core.NewVia(soakViaConfig(5), nil) },
		Clock:       constClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	m := fleet.Map()
	src, dst := pairOwnedBy(t, m, 1)
	cands := work.opts[0]

	direct := controller.NewClient(m.Shards[0].URL)
	opt, err := direct.Choose(src, dst, cands)
	if err != nil {
		t.Fatalf("choose via the non-owner: %v", err)
	}
	if err := direct.Report(src, dst, opt, work.measure(0, opt)); err != nil {
		t.Fatalf("report via the non-owner: %v", err)
	}
	if got := direct.Redirects(); got != 2 {
		t.Errorf("client followed %d redirects, want 2 (choose and report)", got)
	}

	routed := controller.NewClient(fleet.RouterURL())
	if _, err := routed.Choose(src, dst, cands); err != nil {
		t.Fatalf("choose via the router: %v", err)
	}
	if got := routed.Redirects(); got != 1 {
		t.Errorf("router client saw %d redirects, want 1", got)
	}
	if d := fleet.ShardDecisions(); d[0] != 0 || d[1] != 2 {
		t.Errorf("shard decisions = %v, want all 2 on the owner", d)
	}
	st, err := routed.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Chooses != 2 || st.Reports != 1 {
		t.Errorf("fleet stats = %+v, want 2 chooses and 1 report", st)
	}
}
