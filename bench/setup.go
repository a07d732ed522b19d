package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/ring"
	"repro/internal/wal"
)

// The three call-setup workloads share everything but the controller they
// build: setup-mem (controller.New), setup-wal (controller.Open with a WAL)
// and setup-ring (ring.NewFleet: 3 shards, each a durable primary with a
// warm standby behind an ownership gate).
type setupKind int

const (
	kindMem setupKind = iota
	kindWAL
	kindRing
)

// callCounts is one repetition's fixed work. Counts, not durations, so both
// sides of any later comparison do identical work; the number of
// repetitions is what -seconds scales.
type callCounts struct {
	warm     int // untimed calls before the virtual day boundary, so Via has history for the hot pairs
	postJump int // untimed calls after it, so every shard has rebuilt its predictor before timing starts
	lat      int // latency phase: 1 client, every Selector.Choose timed
	thr      int // throughput phase: 2 clients, wall and CPU taken around it
}

const (
	ringShards      = 3
	ringBudgetEvery = 150 * time.Millisecond
	genClients      = 2 // nproc on the reference host: never more load-generating goroutines than cores
	routerHopProbes = 300
	snapshotPoll    = 50 * time.Millisecond // a snapshot file stays for two snapshot intervals, ≈450 ms at setup-wal's rate
)

// jumpClock is the controller.Config.Clock of every system the benchmark
// builds: wall time plus an offset the benchmark moves once, by 25 hours,
// between warm-up and measurement. Via rebuilds its predictor from the
// previous 24-hour epoch's history, so without the jump (viactl's default
// real-time scale) the measured calls would all take the no-prediction
// shortcut and core would do no work. After the jump no further epoch
// boundary falls inside a repetition, so no rebuild lands in a timed phase.
type jumpClock struct {
	offset atomic.Int64
}

func (c *jumpClock) now() time.Time { return time.Now().Add(time.Duration(c.offset.Load())) }

// ctrlSystem is one freshly built control plane and what is needed to
// check it and tear it down.
type ctrlSystem struct {
	kind   setupKind
	dir    string // WAL root; "" for setup-mem
	viaCfg core.ViaConfig
	clock  jumpClock
	reg    *obs.Registry
	htrace *handlerTrace // traced setup-mem and setup-wal only

	srv   *controller.Server // setup-mem, setup-wal
	hs    *http.Server
	base  string
	fleet *ring.Fleet // setup-ring
}

func (s *ctrlSystem) newStrategy() *core.Via { return core.NewVia(s.viaCfg, nil) }

// buildSystem builds the workload's control plane on loopback listeners.
// rec is nil for an untraced repetition.
func buildSystem(kind setupKind, dir string, rec *recorder) (*ctrlSystem, error) {
	s := &ctrlSystem{kind: kind, dir: dir, reg: obs.NewRegistry()}
	// viactl serve's defaults: RTT, unconstrained budget, strategy seed 1,
	// telemetry on. The benchmark's seed shapes the inputs only.
	s.viaCfg = core.DefaultViaConfig(quality.RTT)
	if kind == kindRing {
		// The fleet merges the shards' §4.6 budget gates, which exist only
		// under a budget; 0.8 is the ring soak's setting.
		s.viaCfg.Budget = 0.8
		fleet, err := ring.NewFleet(ring.FleetConfig{
			Shards:      ringShards,
			WALRoot:     dir,
			NewStrategy: func() core.Strategy { return s.newStrategy() },
			Clock:       s.clock.now,
			Metrics:     s.reg,
			BudgetEvery: ringBudgetEvery,
		})
		if err != nil {
			return nil, err
		}
		s.fleet = fleet
		return s, nil
	}

	s.viaCfg.Metrics = s.reg
	var strat core.Strategy = s.newStrategy()
	if rec != nil {
		s.htrace = &handlerTrace{rec: rec}
		strat = &timedStrategy{inner: strat.(controller.StatefulStrategy), h: s.htrace}
	}
	cfg := controller.Config{Strategy: strat, Metrics: s.reg, Clock: s.clock.now}
	if kind == kindWAL {
		cfg.WALDir = dir
		srv, err := controller.Open(cfg)
		if err != nil {
			return nil, err
		}
		s.srv = srv
	} else {
		s.srv = controller.New(cfg)
	}
	handler := s.srv.Handler()
	if s.htrace != nil {
		handler = s.htrace.wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close() //vialint:ignore errwrap error path; the listen failure is already being returned
		return nil, err
	}
	// The read bounds viactl serve sets.
	s.hs = &http.Server{Handler: handler, ReadHeaderTimeout: 2 * time.Second, ReadTimeout: 5 * time.Second}
	s.base = "http://" + ln.Addr().String()
	go s.hs.Serve(ln) //vialint:ignore errwrap Serve returns ErrServerClosed on shutdown; nothing to handle
	return s, nil
}

func (s *ctrlSystem) newClient() *controller.Client {
	if s.fleet != nil {
		return s.fleet.NewClient() // shard-direct by the fleet's map
	}
	return controller.NewClient(s.base)
}

// close stops listeners and releases WALs. Safe to call twice.
func (s *ctrlSystem) close() error {
	// Idle keep-alive connections to the closed listeners would otherwise
	// pile up in the shared transport across repetitions.
	defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if s.fleet != nil {
		return s.fleet.Close()
	}
	if s.hs == nil {
		return nil
	}
	err := s.hs.Close()
	s.hs = nil
	return errors.Join(err, s.srv.Close())
}

// snapshotWatcher counts the snapshots a durable controller takes, from
// outside: it polls WALDir/snapshots, where Config documents they land, and
// counts the distinct ones that appear (the controller keeps the newest two
// and exports no count). Traced repetitions only.
type snapshotWatcher struct {
	stop chan struct{} // nil once stopped
	done chan int
	n    int
}

func watchSnapshots(walDir string) *snapshotWatcher {
	w := &snapshotWatcher{stop: make(chan struct{}), done: make(chan int)}
	go func() {
		seen := map[uint64]bool{}
		scan := func() {
			snaps, err := wal.ListSnapshots(filepath.Join(walDir, "snapshots"))
			if err != nil {
				return // unreadable this once; the next poll sees the same files
			}
			for _, s := range snaps {
				seen[s.LSN] = true
			}
		}
		tick := time.NewTicker(snapshotPoll)
		defer tick.Stop()
		for {
			scan()
			select {
			case <-tick.C:
			case <-w.stop:
				scan()
				w.done <- len(seen)
				return
			}
		}
	}()
	return w
}

// count stops the watcher, if it is still running, and returns how many
// snapshots it saw. A nil watcher saw none.
func (w *snapshotWatcher) count() int {
	if w == nil {
		return 0
	}
	if w.stop != nil {
		close(w.stop)
		w.n = <-w.done
		w.stop = nil
	}
	return w.n
}

// caller is one closed-loop load generator: a client.Selector over a
// controller.Client, driven by one goroutine.
type caller struct {
	cli   *controller.Client
	sel   *client.Selector
	plane *timedPlane // nil in untraced repetitions

	calls     int64
	relayed   int64
	notFresh  int64         // Choose answered from the Selector's stale cache: a failed operation
	notMember int64         // decision not among the offered candidates
	busy      time.Duration // time inside Selector.Choose + Selector.Report
	quarters  [5]time.Time  // start, and the end of each quarter of the last stream run
}

func newCaller(sys *ctrlSystem, rec *recorder) *caller {
	c := &caller{cli: sys.newClient()}
	var plane client.ControlPlane = c.cli
	if rec != nil {
		c.plane = &timedPlane{inner: c.cli, rec: rec}
		// Set before the first request, so the ring client's copy of HTTP
		// carries the transport too.
		c.cli.HTTP.Transport = tagTransport{base: http.DefaultTransport, plane: c.plane}
		plane = c.plane
	}
	c.sel = client.NewSelector(plane)
	return c
}

// run places the stream's calls one after another: Choose, check the
// decision, Report what the quality surface says the chosen path did.
// lat, when non-nil, receives every Choose's latency in ns. Call ids run
// from firstCall.
func (c *caller) run(rec *recorder, stream []int32, cands [][]netsim.Option, firstCall int32, lat []float64) {
	c.quarters[0] = time.Now()
	quarter := 1
	for i, pair := range stream {
		src, dst := pairGroups(pair)
		call := firstCall + int32(i)
		t0 := time.Now()
		var sp int32
		if c.plane != nil {
			sp = rec.begin(spSelectorChoose, 0, call)
			c.plane.parent, c.plane.call = sp, call
		}
		opt, fresh := c.sel.Choose(src, dst, cands[pair])
		rec.end(sp)
		if lat != nil {
			lat[i] = float64(time.Since(t0))
		}
		c.calls++
		if !fresh {
			c.notFresh++
		}
		if !optionIn(opt, cands[pair]) {
			c.notMember++
		}
		if opt.IsRelayed() {
			c.relayed++
		}
		if c.plane != nil {
			sp = rec.begin(spSelectorReport, 0, call)
			c.plane.parent = sp
		}
		c.sel.Report(src, dst, opt, measure(pair, opt))
		rec.end(sp)
		c.busy += time.Since(t0)
		if i+1 == len(stream)*quarter/4 {
			c.quarters[quarter] = time.Now()
			quarter++
		}
	}
}

// runPhase runs each caller over its stream concurrently and returns the
// phase's wall time and the process CPU it used.
func runPhase(rec *recorder, callers []*caller, streams [][]int32, cands [][]netsim.Option, firstCall int32, lat []float64) (wall, cpu time.Duration) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for k, c := range callers {
		wg.Add(1)
		go func(c *caller, stream []int32, first int32) {
			defer wg.Done()
			<-start
			c.run(rec, stream, cands, first, lat)
		}(c, streams[k], firstCall)
		firstCall += int32(len(streams[k]))
	}
	cpu0, t0 := cpuTime(), time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0), cpuTime() - cpu0
}

// setupStreams are a setup-* workload's inputs, generated once per run from
// the seed and reused by every repetition.
type setupStreams struct {
	cands    [][]netsim.Option
	warm     [][]int32 // per client
	postJump [][]int32
	lat      []int32
	thr      [][]int32
}

func newSetupStreams(seed uint64, n callCounts) *setupStreams {
	st := &setupStreams{cands: pairCandidates(), lat: callStream(seed, "latency", n.lat)}
	for k := 0; k < genClients; k++ {
		label := fmt.Sprintf("client-%d", k)
		st.warm = append(st.warm, callStream(seed, "warm-"+label, n.warm/genClients))
		st.postJump = append(st.postJump, callStream(seed, "postjump-"+label, n.postJump/genClients))
		st.thr = append(st.thr, callStream(seed, "throughput-"+label, n.thr/genClients))
	}
	return st
}

// repOut is what one repetition reports: metric values by name and how
// many operations it attempted. Any failed operation or output check is
// returned as an error instead.
type repOut struct {
	vals      map[string]float64
	attempted int64
	spans     []span // traced repetitions only
}

// runSetupRep runs one repetition of a setup-* workload on a freshly built
// system in dir, which it removes before returning.
func runSetupRep(kind setupKind, n callCounts, st *setupStreams, dir string, rec *recorder) (out repOut, err error) {
	if kind != kindMem {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return out, err
		}
		defer os.RemoveAll(dir) //vialint:ignore errwrap best-effort temp cleanup on every exit path
	}
	vals := map[string]float64{}

	// Set-up: build, warm up, cross the day boundary, warm the new epoch.
	t0 := time.Now()
	sys, err := buildSystem(kind, dir, rec)
	if err != nil {
		return out, fmt.Errorf("build: %w", err)
	}
	defer sys.close() //vialint:ignore errwrap teardown close; the success path closes explicitly below
	var snapshots *snapshotWatcher
	if kind == kindWAL && rec != nil {
		snapshots = watchSnapshots(dir)
		defer snapshots.count() // stops it on the error paths too
	}
	callers := make([]*caller, genClients)
	for k := range callers {
		callers[k] = newCaller(sys, rec)
	}
	runPhase(nil, callers, st.warm, st.cands, 0, nil)
	sys.clock.offset.Store(int64(25 * time.Hour))
	runPhase(nil, callers, st.postJump, st.cands, 0, nil)
	vals["setup_s"] = time.Since(t0).Seconds()

	// Latency phase: one closed-loop client.
	if rec != nil {
		rec.on.Store(true)
		if sys.htrace != nil {
			sys.htrace.single.Store(true)
		}
	}
	lat := make([]float64, n.lat)
	runPhase(rec, callers[:1], [][]int32{st.lat}, st.cands, 1, lat)
	latSpans := 0
	if rec != nil {
		latSpans = int(rec.n.Load())
		if sys.htrace != nil {
			sys.htrace.single.Store(false)
		}
	}
	if err := latencyMetrics(lat, vals); err != nil {
		return out, err
	}

	// Throughput phase: two closed-loop clients.
	var busy0 time.Duration
	for _, c := range callers {
		busy0 += c.busy
	}
	var ms0, ms1 runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&ms0)
	}
	wall, cpu := runPhase(rec, callers, st.thr, st.cands, int32(n.lat)+1, nil)
	if rec != nil {
		runtime.ReadMemStats(&ms1)
		rec.on.Store(false)
		vals["controller.allocs_per_call"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n.thr)
	}
	vals["ops_per_s"] = float64(n.thr) / wall.Seconds()
	vals["cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(n.thr)

	// Tallies and output checks.
	var calls, relayed, notFresh, notMember, lost, retries, redirects int64
	var busy, firstQ, lastQ time.Duration
	for _, c := range callers {
		calls += c.calls
		relayed += c.relayed
		notFresh += c.notFresh
		notMember += c.notMember
		lost += c.sel.LostReports()
		retries += c.cli.Retries()
		redirects += c.cli.Redirects()
		busy += c.busy
		firstQ += c.quarters[1].Sub(c.quarters[0])
		lastQ += c.quarters[4].Sub(c.quarters[3])
	}
	out.attempted = calls
	switch {
	case notFresh > 0:
		return out, fmt.Errorf("%d of %d decisions were served stale by the Selector, not by the controller", notFresh, calls)
	case lost > 0:
		return out, fmt.Errorf("%d of %d reports were lost", lost, calls)
	case notMember > 0:
		return out, fmt.Errorf("%d of %d decisions were not among the offered candidates", notMember, calls)
	}
	stats, err := callers[0].cli.Stats()
	if err != nil {
		return out, fmt.Errorf("stats: %w", err)
	}
	if stats.Chooses != calls || stats.Reports != calls {
		return out, fmt.Errorf("controller counted %d chooses and %d reports for %d calls issued", stats.Chooses, stats.Reports, calls)
	}
	vals["client.stale_decisions"] = float64(notFresh)
	vals["client.lost_reports"] = float64(lost)
	vals["controller.retries"] = float64(retries)
	vals["controller.redirects"] = float64(redirects)
	vals["core.relayed_frac"] = float64(relayed) / float64(calls)
	vals["bench.gen_wait_frac"] = float64(busy-busy0) / (float64(genClients) * float64(wall))
	if kind == kindRing {
		// Calls/s in the last quarter of the throughput phase over the
		// first quarter: 1.0 is flat, below 1 the fleet slowed as its logs grew.
		vals["ring.decay_ratio"] = float64(firstQ) / float64(lastQ)
		var total, most int64
		decisions := sys.fleet.ShardDecisions()
		for _, d := range decisions {
			total += d
			most = max(most, d)
		}
		vals["ring.shard_imbalance"] = float64(most) * float64(len(decisions)) / float64(total)
		if rec != nil {
			hop, err := routerHop(sys.fleet, st)
			if err != nil {
				return out, err
			}
			vals["ring.router_hop_us_p50"] = hop
		}
	}
	if err := sys.checkReplayIdentity(); err != nil {
		return out, err
	}
	// The system is closed: no snapshot is in flight and every log is flushed.
	if kind != kindMem {
		b, err := dirBytes(dir)
		if err != nil {
			return out, err
		}
		vals["wal_bytes_per_call"] = float64(b) / float64(calls)
		vals["wal.bytes_per_call"] = vals["wal_bytes_per_call"]
	}
	if kind == kindWAL {
		vals["controller.snapshot_bytes"] = sys.reg.Snapshot()["via_controller_snapshot_bytes"]
		if snapshots != nil {
			vals["controller.snapshots"] = float64(snapshots.count())
		}
	}
	if rec != nil {
		if d := rec.dropped.Load(); d > 0 {
			return out, fmt.Errorf("trace: %d spans did not fit the recorder's preallocation", d)
		}
		out.spans = rec.recorded()
		for k, v := range spanMetrics(out.spans, latSpans) {
			vals[k] = v
		}
	}
	out.vals = vals
	return out, nil
}

// checkReplayIdentity is the replay-identity property the durability gates
// rest on: reopening each WAL with a fresh strategy must reach SaveState
// bytes equal to the live strategy's. It shuts the system down (the WAL
// can be opened by one controller at a time).
func (s *ctrlSystem) checkReplayIdentity() error {
	type capture struct {
		name   string
		state  []byte
		walDir string
	}
	var caps []capture
	switch s.kind {
	case kindMem:
		return s.close()
	case kindWAL:
		state, err := s.srv.StrategyState()
		if err != nil {
			return err
		}
		caps = append(caps, capture{"controller", state, s.dir})
	case kindRing:
		// Quiesce the budget loop so nothing is logged after the capture.
		s.fleet.Router().Stop()
		for _, id := range s.fleet.ShardIDs() {
			state, walDir, _, err := s.fleet.ShardState(id)
			if err != nil {
				return err
			}
			caps = append(caps, capture{fmt.Sprintf("shard %d", id), state, walDir})
		}
	}
	if err := s.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	for _, c := range caps {
		srv, err := controller.Open(controller.Config{Strategy: s.newStrategy(), WALDir: c.walDir, SnapshotEvery: -1})
		if err != nil {
			return fmt.Errorf("replay %s: %w", c.name, err)
		}
		replayed, err := srv.StrategyState()
		srv.Close() //vialint:ignore errwrap read-only replay server; close failures have no recovery
		if err != nil {
			return fmt.Errorf("replay %s: %w", c.name, err)
		}
		if !bytes.Equal(replayed, c.state) {
			return fmt.Errorf("replay identity broken: %s's WAL replays to %d state bytes that differ from the live strategy's %d", c.name, len(replayed), len(c.state))
		}
	}
	return nil
}

// routerHop is what the stateless router adds to a request: p50 of Choose
// through Fleet.RouterURL() minus p50 of the same requests shard-direct,
// in µs. It runs on the live fleet once the timed phases are over.
func routerHop(fleet *ring.Fleet, st *setupStreams) (float64, error) {
	viaRouter := controller.NewClient(fleet.RouterURL())
	direct := fleet.NewClient()
	var routed, straight []float64
	for _, pair := range st.lat[:routerHopProbes] {
		src, dst := pairGroups(pair)
		for _, probe := range []struct {
			cli *controller.Client
			out *[]float64
		}{{direct, &straight}, {viaRouter, &routed}} {
			t0 := time.Now()
			if _, err := probe.cli.Choose(src, dst, st.cands[pair]); err != nil {
				return 0, fmt.Errorf("router-hop probe: %w", err)
			}
			*probe.out = append(*probe.out, float64(time.Since(t0)))
		}
	}
	return (median(routed) - median(straight)) / 1e3, nil
}

// spanMetrics derives the per-layer timings from a traced repetition.
// Only the latency phase's spans (the first latSpans) are used: there the
// calls do not overlap, so every span has its true parent and the layers'
// self times along the blocking path add up to the call's latency.
func spanMetrics(spans []span, latSpans int) map[string]float64 {
	self := selfTimes(spans)
	dur := map[spanName][]float64{}
	own := map[spanName][]float64{}
	total := map[spanName]float64{}
	for i, s := range spans[:latSpans] {
		d := float64(s.end - s.start)
		dur[s.name] = append(dur[s.name], d)
		own[s.name] = append(own[s.name], float64(self[i]))
		total[s.name] += d
	}
	vals := map[string]float64{
		"client.selector_self_us_p50":     median(own[spSelectorChoose]) / 1e3,
		"controller.client_choose_us_p50": median(dur[spClientChoose]) / 1e3,
		"controller.client_report_us_p50": median(dur[spClientReport]) / 1e3,
	}
	if len(dur[spHandlerChoose]) == 0 {
		return vals // setup-ring: the fleet owns its handlers, so nothing below the client is visible
	}
	vals["controller.handler_choose_us_p50"] = median(dur[spHandlerChoose]) / 1e3
	vals["controller.handler_report_us_p50"] = median(dur[spHandlerReport]) / 1e3
	vals["controller.http_self_us_p50"] = median(own[spClientChoose]) / 1e3
	vals["controller.handler_self_us_p50"] = median(own[spHandlerChoose]) / 1e3
	vals["core.choose_ns_p50"] = median(dur[spCoreChoose])
	vals["core.observe_ns_p50"] = median(dur[spCoreObserve])
	vals["core.share_of_handler"] = (total[spCoreChoose] + total[spCoreObserve]) / (total[spHandlerChoose] + total[spHandlerReport])
	return vals
}
