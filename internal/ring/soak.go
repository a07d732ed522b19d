package ring

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/stats"
)

// SoakConfig parameterizes a shard-chaos soak: a sustained zipf call load
// against a live Fleet while a fault plan kills a shard, promotes its
// standby, and grows the ring mid-stream.
type SoakConfig struct {
	// Seed drives every random draw in the soak (workers, oracle, and the
	// strategies themselves).
	Seed uint64
	// Shards is the initial shard count (min 1); VNodes as in FleetConfig.
	Shards int
	VNodes int
	// Calls is the minimum total call count across workers; the soak runs
	// at least this many calls AND long enough for the fault plan to
	// finish, so faults always land mid-stream.
	Calls int
	// Pairs is the zipf universe of (src, dst) group pairs.
	Pairs int
	// ZipfS is the zipf skew exponent (default 1.1 — a few pairs carry
	// most of the load, as AS-pair call volume does in §5).
	ZipfS float64
	// Goroutines is the worker count, each with its own ring client.
	Goroutines int
	// Relays is how many bounce options each call offers beyond direct.
	Relays int
	// Budget < 1 enables the §4.6 budget gate (the datum the router
	// aggregates across shards). Default 0.8.
	Budget float64
	// TimeScale as in controller.Config.
	TimeScale float64
	// WALRoot holds the shard WALs; empty = a fresh temp dir, removed
	// after a successful run.
	WALRoot string
	// BudgetEvery is the router's aggregation period (default 150ms).
	BudgetEvery time.Duration
	// KillAt / PromoteAt / AddAt are the fault plan offsets: kill shard
	// 0's primary, promote its standby, grow the ring by one shard.
	// Defaults 300ms / 600ms / 900ms; negative disables that event.
	KillAt    time.Duration
	PromoteAt time.Duration
	AddAt     time.Duration
	// Metrics receives fleet + fault telemetry. Optional.
	Metrics *obs.Registry
	// Logf, when set, receives progress lines (testing.T.Logf shape).
	Logf func(format string, args ...any)
}

// ShardReport is one shard's post-run accounting.
type ShardReport struct {
	ID int `json:"id"`
	// AppliedLSN is how many WAL records the shard's serving incarnation
	// had applied at capture time.
	AppliedLSN uint64 `json:"applied_lsn"`
	// ReplayIdentical reports whether re-opening the shard's WAL from
	// scratch reproduced the live strategy state byte-for-byte.
	ReplayIdentical bool `json:"replay_identical"`
	// Decisions is how many choose requests this shard's gates owned and
	// served over the load window; DecisionsPerSec is that count over the
	// window's wall time — the per-shard throughput CI trends, and the
	// first place a hot or starved shard shows up.
	Decisions       int64   `json:"decisions"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
}

// SoakReport is the soak's machine-readable outcome (uploaded by CI).
type SoakReport struct {
	Seed       uint64 `json:"seed"`
	Shards     int    `json:"shards"` // initial count
	Calls      int64  `json:"calls"`  // decisions actually made
	Drops      int64  `json:"drops"`  // calls that got no decision after retries
	Redirects  int64  `json:"redirects"`
	Retries    int64  `json:"retries"`
	Promotions int    `json:"promotions"`
	Rebalances int    `json:"rebalances"`
	MapEpoch   uint64 `json:"map_epoch"`
	// MergedN / MergedThreshold are the final fleet-wide §4.6 aggregate;
	// OracleN / OracleThreshold come from a sequential single-strategy run
	// over the same call distribution and seed.
	MergedN         int64         `json:"merged_n"`
	MergedThreshold float64       `json:"merged_threshold"`
	OracleN         int64         `json:"oracle_n"`
	OracleThreshold float64       `json:"oracle_threshold"`
	WallSec         float64       `json:"wall_sec"`
	FaultErrors     int           `json:"fault_errors"`
	ShardReports    []ShardReport `json:"shard_reports"`

	// FinalMerge is the whole of the final explicit aggregation round
	// (MergedN and MergedThreshold are its N and Threshold): how many shards
	// answered and how many installed the result. Not in the JSON report.
	FinalMerge BudgetAggregate `json:"-"`
}

// soakWorkload is the deterministic call-mix shared by the fleet workers
// and the single-strategy oracle: per-pair candidate sets and a synthetic
// quality surface that makes relaying genuinely better for most pairs (so
// the budget gate has benefit mass to estimate). Which pair a call is for
// is each caller's own stats.Zipf draw over cfg.Pairs.
type soakWorkload struct {
	opts [][]netsim.Option // per-pair candidate sets (shared, read-only)
}

func newSoakWorkload(cfg SoakConfig) *soakWorkload {
	w := &soakWorkload{opts: make([][]netsim.Option, cfg.Pairs)}
	for i := range w.opts {
		opts := make([]netsim.Option, 0, cfg.Relays+1)
		opts = append(opts, netsim.DirectOption())
		for r := 1; r <= cfg.Relays; r++ {
			opts = append(opts, netsim.BounceOption(netsim.RelayID(r)))
		}
		w.opts[i] = opts
	}
	return w
}

// groups returns the (src, dst) group IDs for a pair index.
func (w *soakWorkload) groups(pair int) (int32, int32) {
	src := int32(1000 + 2*pair)
	return src, src + 1
}

// measure is the synthetic quality surface: a pure function of (pair,
// option), so every incarnation — worker, oracle, WAL replay — sees the
// same world. Relayed paths beat direct for most pairs by a pair-varying
// margin, giving the §4.6 benefit estimator a nontrivial distribution.
func (w *soakWorkload) measure(pair int, opt netsim.Option) quality.Metrics {
	key := uint64(uint32(pair))<<32 | uint64(uint32(opt.R1))<<8 | uint64(uint8(opt.Kind))
	u := float64(mix64(key)>>11) / (1 << 53)
	if opt.IsRelayed() {
		return quality.Metrics{RTTMs: 80 + 80*u, LossRate: 0.005 + 0.01*u, JitterMs: 4 + 6*u}
	}
	// Direct: worse on average, with pair-dependent spread overlapping
	// the relayed range so some pairs have no benefit to find.
	return quality.Metrics{RTTMs: 120 + 160*u, LossRate: 0.01 + 0.04*u, JitterMs: 8 + 14*u}
}

// RunSoak drives the full scenario and returns the report. It fails only
// on harness-level errors; policy assertions (zero drops, replay
// identity, the final merge installed everywhere) are the caller's to make
// on the report. The oracle figures are reported for a human to read, not
// to be gated on: the fleet's benefit samples come from a wall-clock
// schedule the sequential oracle does not share, so the two thresholds
// summarise different populations (TestMergeThresholdAccuracy gates the
// merge itself, on one population).
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 3
	}
	if cfg.Calls <= 0 {
		cfg.Calls = 2000
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 64
	}
	if cfg.ZipfS <= 0 {
		cfg.ZipfS = 1.1
	}
	if cfg.Goroutines <= 0 {
		cfg.Goroutines = 4
	}
	if cfg.Relays <= 0 {
		cfg.Relays = 5
	}
	if cfg.Budget == 0 {
		cfg.Budget = 0.8
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 60 // one wall second = one algorithm minute
	}
	if cfg.BudgetEvery == 0 {
		cfg.BudgetEvery = 150 * time.Millisecond
	}
	if cfg.KillAt == 0 {
		cfg.KillAt = 300 * time.Millisecond
	}
	if cfg.PromoteAt == 0 {
		cfg.PromoteAt = 600 * time.Millisecond
	}
	if cfg.AddAt == 0 {
		cfg.AddAt = 900 * time.Millisecond
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	walRoot := cfg.WALRoot
	cleanup := false
	if walRoot == "" {
		dir, err := os.MkdirTemp("", "via-soak-*")
		if err != nil {
			return nil, err
		}
		walRoot, cleanup = dir, true
	}

	viaCfg := core.DefaultViaConfig(quality.RTT)
	viaCfg.Budget = cfg.Budget
	viaCfg.Seed = cfg.Seed
	newStrategy := func() core.Strategy { return core.NewVia(viaCfg, nil) }

	fleet, err := NewFleet(FleetConfig{
		Shards:      cfg.Shards,
		VNodes:      cfg.VNodes,
		WALRoot:     walRoot,
		NewStrategy: newStrategy,
		TimeScale:   cfg.TimeScale,
		Metrics:     cfg.Metrics,
		BudgetEvery: cfg.BudgetEvery,
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close() //vialint:ignore errwrap teardown close; explicit Close below handles the success path

	work := newSoakWorkload(cfg)
	rep := &SoakReport{Seed: cfg.Seed, Shards: cfg.Shards}
	start := time.Now()

	// The fault plan fires against the fleet in real time while workers
	// hammer it; workers keep going until the call floor is met AND the
	// plan has finished, so every fault lands under load.
	plan := faults.NewPlan(cfg.Seed)
	if cfg.KillAt > 0 {
		plan.KillShardAt(cfg.KillAt, 0)
	}
	if cfg.PromoteAt > 0 {
		plan.PromoteShardStandbyAt(cfg.PromoteAt, 0)
	}
	if cfg.AddAt > 0 {
		plan.AddShardAt(cfg.AddAt)
	}
	sched := faults.NewScheduler(plan, fleet)
	sched.SetMetrics(cfg.Metrics)
	planDone := make(chan struct{})
	sched.Start()
	go func() { sched.Wait(); close(planDone) }()

	var calls, drops, retries, redirects atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < cfg.Goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := fleet.NewClient()
			// The retry budget must ride out the kill→promote window:
			// generous attempts, capped backoff.
			client.Retry = controller.RetryPolicy{
				MaxAttempts: 10,
				BaseDelay:   25 * time.Millisecond,
				MaxDelay:    250 * time.Millisecond,
				Timeout:     2 * time.Second,
			}
			defer func() {
				retries.Add(client.Retries())
				redirects.Add(client.Redirects())
			}()
			zipf := stats.NewZipf(stats.NewRNG(cfg.Seed).Split("soak-w"+strconv.Itoa(g)), cfg.Pairs, cfg.ZipfS)
			for {
				n := calls.Add(1)
				if n > int64(cfg.Calls) {
					// Floor met: keep load on until the fault plan ends.
					select {
					case <-planDone:
						calls.Add(-1)
						return
					default:
					}
				}
				pair := zipf.Sample()
				src, dst := work.groups(pair)
				opt, err := client.Choose(src, dst, work.opts[pair])
				if err != nil {
					drops.Add(1)
					continue
				}
				if err := client.Report(src, dst, opt, work.measure(pair, opt)); err != nil {
					drops.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	// The workload window in virtual hours: the oracle below ramps its
	// clock over this same span so both sides cross the same prediction
	// epochs. Measured here, before teardown/replay inflate wall time.
	loadSec := time.Since(start).Seconds()
	workHours := loadSec * cfg.TimeScale
	// Per-shard throughput over the same window; captured now, while every
	// gate (including killed shards' survivors) is still addressable.
	shardDecisions := fleet.ShardDecisions()
	sched.Stop()
	rep.FaultErrors = len(sched.Errors())
	for _, e := range sched.Errors() {
		logf("soak: fault error: %v", e)
	}

	// Quiesce the budget loop, then run one final explicit merge so the
	// reported aggregate reflects every call.
	fleet.Router().Stop()
	agg, err := fleet.Router().AggregateBudget()
	if err != nil {
		return nil, fmt.Errorf("ring: final budget aggregation: %w", err)
	}
	rep.Calls = calls.Load()
	rep.Drops = drops.Load()
	rep.Retries = retries.Load()
	rep.Redirects = redirects.Load()
	rep.Promotions = fleet.Promotions()
	rep.Rebalances = fleet.Rebalances()
	rep.MapEpoch = fleet.Map().MapEpoch
	rep.FinalMerge = agg
	rep.MergedN = agg.N
	rep.MergedThreshold = agg.Threshold

	// Replay identity: capture each shard's live strategy state, close the
	// fleet, then re-open every shard's WAL from scratch and compare.
	type capture struct {
		id     int
		state  []byte
		walDir string
		lsn    uint64
	}
	var caps []capture
	for _, id := range fleet.ShardIDs() {
		state, walDir, lsn, err := fleet.ShardState(id)
		if err != nil {
			return nil, err
		}
		caps = append(caps, capture{id: id, state: state, walDir: walDir, lsn: lsn})
	}
	if err := fleet.Close(); err != nil {
		return nil, err
	}
	for _, c := range caps {
		replayed, err := replayState(c.walDir, newStrategy, cfg.TimeScale)
		if err != nil {
			return nil, fmt.Errorf("ring: replay shard %d: %w", c.id, err)
		}
		identical := string(replayed) == string(c.state)
		decs := shardDecisions[c.id]
		rep.ShardReports = append(rep.ShardReports, ShardReport{
			ID:              c.id,
			AppliedLSN:      c.lsn,
			ReplayIdentical: identical,
			Decisions:       decs,
			DecisionsPerSec: float64(decs) / loadSec,
		})
		logf("soak: shard %d lsn=%d replay_identical=%v decisions=%d (%.0f/s)",
			c.id, c.lsn, identical, decs, float64(decs)/loadSec)
	}

	// Oracle: the same call distribution fed sequentially to one
	// unsharded strategy — the reference the merged threshold must stay
	// within tolerance of. Its virtual clock ramps over the same span the
	// fleet's TimeScale covered, so both sides cross the same prediction
	// epochs and warm their benefit estimators comparably.
	rep.WallSec = time.Since(start).Seconds()
	rep.OracleN, rep.OracleThreshold = runOracle(cfg, work, rep.Calls, workHours)
	logf("soak: calls=%d drops=%d redirects=%d epoch=%d merged=(%d, %.4f) oracle=(%d, %.4f)",
		rep.Calls, rep.Drops, rep.Redirects, rep.MapEpoch,
		rep.MergedN, rep.MergedThreshold, rep.OracleN, rep.OracleThreshold)

	if cleanup {
		os.RemoveAll(walRoot) //vialint:ignore errwrap best-effort temp cleanup
	}
	return rep, nil
}

// replayState re-opens a shard's WAL with a fresh strategy and captures
// the state the replay reaches.
func replayState(walDir string, newStrategy func() core.Strategy, timeScale float64) ([]byte, error) {
	srv, err := controller.Open(controller.Config{
		Strategy:      newStrategy(),
		TimeScale:     timeScale,
		WALDir:        walDir,
		SnapshotEvery: -1,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close() //vialint:ignore errwrap read-only replay server; close failures have no recovery
	return srv.StrategyState()
}

// runOracle replays the soak's call distribution against one in-process
// Via — with virtual time ramping linearly over totalHours, mirroring the
// fleet's clock — and returns its final §4.6 digest.
func runOracle(cfg SoakConfig, work *soakWorkload, calls int64, totalHours float64) (int64, float64) {
	viaCfg := core.DefaultViaConfig(quality.RTT)
	viaCfg.Budget = cfg.Budget
	viaCfg.Seed = cfg.Seed
	via := core.NewVia(viaCfg, nil)
	zipf := stats.NewZipf(stats.NewRNG(cfg.Seed).Split("soak-oracle"), cfg.Pairs, cfg.ZipfS)
	for i := int64(0); i < calls; i++ {
		pair := zipf.Sample()
		src, dst := work.groups(pair)
		call := core.Call{
			Src:    netsim.ASID(src),
			Dst:    netsim.ASID(dst),
			THours: totalHours * float64(i) / float64(calls),
		}
		opt := via.Choose(call, work.opts[pair])
		via.Observe(call, opt, work.measure(pair, opt))
	}
	n, th, _ := via.BudgetDigest()
	return n, th
}
