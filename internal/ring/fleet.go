package ring

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wal"
)

// FleetConfig parameterizes an in-process sharded control plane.
type FleetConfig struct {
	// Shards is the initial shard count (min 1).
	Shards int
	// VNodes per shard on the ring; 0 = DefaultVNodes.
	VNodes int
	// WALRoot is where shard WALs live (shard-<i>, shard-<i>-standby
	// subdirectories). Required: shard durability is the point.
	WALRoot string
	// NewStrategy builds a fresh strategy for each controller incarnation
	// (every shard primary and standby gets its own). Required; must
	// implement controller.StatefulStrategy.
	NewStrategy func() core.Strategy
	// TimeScale and Clock pass through to each shard's
	// controller.Config. Standbys run the default lease and are promoted
	// only by PromoteShardStandby.
	TimeScale float64
	Clock     func() time.Time
	// Metrics is shared across shards, gates, and the router. Optional.
	Metrics *obs.Registry
	// BudgetEvery starts the router's §4.6 aggregation loop at this
	// period; 0 leaves merging to explicit AggregateBudget calls.
	BudgetEvery time.Duration
}

// fleetShard is one shard's runtime: primary + warm standby controller,
// each behind its own ownership gate and HTTP listener.
type fleetShard struct {
	id   int
	url  string // primary base URL
	sURL string // standby base URL

	primary *controller.Server
	standby *controller.Server

	httpPrim *http.Server
	httpStby *http.Server

	gatePrim *Gate
	gateStby *Gate

	lnPrim net.Listener
	lnStby net.Listener

	walPrim string
	walStby string

	killed   bool // guarded by mu (the owning Fleet's)
	promoted bool // guarded by mu (the owning Fleet's)
}

// activeLocked returns the serving incarnation: the standby once the
// primary is dead or demoted, the primary otherwise. Caller holds the
// owning Fleet's mu.
func (sh *fleetShard) activeLocked() *controller.Server {
	if sh.killed || sh.promoted {
		return sh.standby
	}
	return sh.primary
}

// activeWALLocked returns the serving incarnation's WAL directory (for
// replay verification). Caller holds the owning Fleet's mu.
func (sh *fleetShard) activeWALLocked() string {
	if sh.killed || sh.promoted {
		return sh.walStby
	}
	return sh.walPrim
}

// Fleet runs a complete sharded control plane in-process: N shards (each
// a durable controller.Server with a warm standby, wrapped in an
// ownership Gate), plus a Router front. It implements faults.ShardTarget
// so fault plans can kill shards, promote standbys, and grow/shrink the
// ring mid-run; every other fault kind is rejected via the embedded
// UnsupportedTarget.
//
// Shards run with automatic snapshots disabled (SnapshotEvery < 0): the
// full WAL is what makes a shard rebalanceable — moving a pair to a new
// owner replays exactly that pair's records — and what the soak harness
// replays to prove per-shard determinism.
type Fleet struct {
	faults.UnsupportedTarget
	cfg FleetConfig

	router     *Router
	routerHTTP *http.Server
	routerURL  string

	mu         sync.Mutex
	shards     map[int]*fleetShard // guarded by mu
	cur        *Map                // guarded by mu — authoritative map copy
	nextID     int                 // guarded by mu
	promotions int                 // guarded by mu
	rebalances int                 // guarded by mu
	closed     bool                // guarded by mu
}

// NewFleet starts the shards, their standbys, and the router. Callers
// must Close the fleet to release listeners and WALs.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.NewStrategy == nil {
		return nil, fmt.Errorf("ring: FleetConfig.NewStrategy is required")
	}
	if cfg.WALRoot == "" {
		return nil, fmt.Errorf("ring: FleetConfig.WALRoot is required")
	}
	f := &Fleet{cfg: cfg, shards: make(map[int]*fleetShard), nextID: cfg.Shards}

	// Listeners first, so every shard's URL is known before any map or
	// gate is built.
	shards := make([]*fleetShard, cfg.Shards)
	ringShards := make([]Shard, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		sh, err := f.listenShard(i)
		if err != nil {
			f.Close() //vialint:ignore errwrap error path; the listen failure is already being returned
			return nil, err
		}
		shards[i] = sh
		f.mu.Lock()
		f.shards[i] = sh
		f.mu.Unlock()
		ringShards[i] = Shard{ID: i, URL: sh.url, Standby: sh.sURL}
	}
	m, err := NewMap(cfg.VNodes, ringShards...)
	if err != nil {
		f.Close() //vialint:ignore errwrap error path; the map failure is already being returned
		return nil, err
	}
	f.mu.Lock()
	f.cur = m
	f.mu.Unlock()
	for _, sh := range shards {
		if err := f.openShard(sh, m); err != nil {
			f.Close() //vialint:ignore errwrap error path; the open failure is already being returned
			return nil, err
		}
	}

	f.router = NewRouter(m, cfg.Metrics)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close() //vialint:ignore errwrap error path; the listen failure is already being returned
		return nil, err
	}
	f.routerHTTP = &http.Server{Handler: f.router.Handler()}
	f.routerURL = "http://" + ln.Addr().String()
	go f.routerHTTP.Serve(ln) //vialint:ignore errwrap Serve returns ErrServerClosed on shutdown; nothing to handle
	if cfg.BudgetEvery > 0 {
		f.router.StartBudgetLoop(cfg.BudgetEvery)
	}
	return f, nil
}

// listenShard allocates a shard's listeners and WAL directories; the
// controllers come later (openShard), once the full map exists.
func (f *Fleet) listenShard(id int) (*fleetShard, error) {
	lnP, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lnS, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lnP.Close() //vialint:ignore errwrap error path; the second listen failure is already being returned
		return nil, err
	}
	// A bound listener's URL is known before anything serves on it, so
	// the map can be built first and Serve starts only in openShard, once
	// the gate handler is final.
	sh := &fleetShard{
		id:      id,
		url:     "http://" + lnP.Addr().String(),
		sURL:    "http://" + lnS.Addr().String(),
		lnPrim:  lnP,
		lnStby:  lnS,
		walPrim: filepath.Join(f.cfg.WALRoot, "shard-"+strconv.Itoa(id)),
		walStby: filepath.Join(f.cfg.WALRoot, "shard-"+strconv.Itoa(id)+"-standby"),
	}
	return sh, nil
}

// openShard opens a shard's primary and standby controllers under the
// given map and routes traffic through their gates.
func (f *Fleet) openShard(sh *fleetShard, m *Map) error {
	if err := os.MkdirAll(sh.walPrim, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(sh.walStby, 0o755); err != nil {
		return err
	}
	prim, err := controller.Open(f.shardConfig(sh.walPrim, ""))
	if err != nil {
		return err
	}
	sh.primary = prim
	sh.gatePrim = NewGate(sh.id, prim.Handler(), m, f.cfg.Metrics)
	sh.httpPrim = &http.Server{Handler: sh.gatePrim}
	go sh.httpPrim.Serve(sh.lnPrim) //vialint:ignore errwrap Serve returns ErrServerClosed on shutdown; nothing to handle

	// The standby starts tailing the (now serving) primary immediately.
	stby, err := controller.Open(f.shardConfig(sh.walStby, sh.url))
	if err != nil {
		return err
	}
	sh.standby = stby
	sh.gateStby = NewGate(sh.id, stby.Handler(), m, f.cfg.Metrics)
	sh.httpStby = &http.Server{Handler: sh.gateStby}
	go sh.httpStby.Serve(sh.lnStby) //vialint:ignore errwrap Serve returns ErrServerClosed on shutdown; nothing to handle
	return nil
}

// shardConfig is the controller.Config every shard incarnation runs
// with. SnapshotEvery is forced negative: the rebalance/replay design
// depends on the full log (see Fleet doc).
func (f *Fleet) shardConfig(walDir, standbyOf string) controller.Config {
	return controller.Config{
		Strategy:      f.cfg.NewStrategy(),
		TimeScale:     f.cfg.TimeScale,
		Metrics:       f.cfg.Metrics,
		WALDir:        walDir,
		SnapshotEvery: -1,
		StandbyOf:     standbyOf,
		Clock:         f.cfg.Clock,
	}
}

// RouterURL is the stateless front's base URL.
func (f *Fleet) RouterURL() string { return f.routerURL }

// Router exposes the fleet's router (budget aggregation, map installs).
func (f *Fleet) Router() *Router { return f.router }

// Map returns the fleet's current shard map.
func (f *Fleet) Map() *Map {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur
}

// Promotions and Rebalances count completed shard-fault operations.
func (f *Fleet) Promotions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.promotions
}

// Rebalances counts completed add/remove rebalance operations.
func (f *Fleet) Rebalances() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rebalances
}

// ShardIDs lists the live shard IDs in ascending order.
func (f *Fleet) ShardIDs() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]int, 0, len(f.shards))
	for id := range f.shards {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// ShardDecisions returns the choose count each live shard's gates have
// passed through (primary plus standby, so a promoted incarnation's
// serving time is included). Keys are shard IDs.
func (f *Fleet) ShardDecisions() map[int]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[int]int64, len(f.shards))
	for id, sh := range f.shards {
		var n int64
		if sh.gatePrim != nil {
			n += sh.gatePrim.Decisions()
		}
		if sh.gateStby != nil {
			n += sh.gateStby.Decisions()
		}
		out[id] = n
	}
	return out
}

// ShardState captures a shard's strategy state bytes from its serving
// incarnation, and the WAL directory + applied LSN that state is aligned
// with — everything a replay-identity check needs.
func (f *Fleet) ShardState(id int) (state []byte, walDir string, lsn uint64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sh, ok := f.shards[id]
	if !ok {
		return nil, "", 0, fmt.Errorf("ring: no shard %d", id)
	}
	srv := sh.activeLocked()
	state, err = srv.StrategyState()
	if err != nil {
		return nil, "", 0, err
	}
	return state, sh.activeWALLocked(), srv.AppliedLSN(), nil
}

// NewClient builds a ring-aware controller client: requests go shard-
// direct by the fleet's map, epoch-stale redirects re-fetch the map from
// the router, and anything unsharded goes to the router. The map is the
// fleet's own, installed without an HTTP fetch.
func (f *Fleet) NewClient() *controller.Client {
	return newClient(f.routerURL, f.Map())
}

// NewClient builds a controller client for base: a ring router, a shard's
// gate, or a plain controller. Where base serves a shard map, the client
// routes choose/report shard-direct by it (owner's primary, then its
// standby) and re-fetches it from base after a stale redirect; where base
// answers the map fetch 404, as an unsharded controller does, the client
// sends everything to base. Any other failure to fetch the map is
// returned.
func NewClient(base string) (*controller.Client, error) {
	m, err := FetchMap(base)
	if errors.Is(err, errNoMap) {
		return controller.NewClient(base), nil
	}
	if err != nil {
		return nil, err
	}
	return newClient(base, m), nil
}

// newClient is a client on base holding m, refreshing it from base.
func newClient(base string, m *Map) *controller.Client {
	c := controller.NewClient(base)
	c.RefreshShards = func() (controller.ShardMap, error) {
		return FetchMap(base)
	}
	c.SetShards(m)
	return c
}

// errNoMap is FetchMap's error for a base URL that serves no map (404).
var errNoMap = errors.New("ring: no shard map served")

// FetchMap bootstraps a shard map from a router or gate base URL. The body
// is read under the control plane's bound (transport.MaxBodyBytes); a read
// that fails or runs past it is an error, not a map.
func FetchMap(base string) (*Map, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get(base + "/v1/ring/map")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //vialint:ignore errwrap body read whole below; close failures have no recovery
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, errNoMap
	default:
		return nil, fmt.Errorf("ring: map fetch returned %s", resp.Status)
	}
	data, err := transport.ReadBody(nil, resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("ring: read map: %w", err)
	}
	return DecodeMap(data)
}

// installMap publishes a new-epoch map to the router and every live
// gate (primary and standby, including killed shards' surviving
// standbys). Caller holds f.mu.
func (f *Fleet) installMapLocked(next *Map) {
	f.cur = next
	f.router.Install(next) //vialint:ignore errwrap monotone install; a same-epoch rejection means it is already current
	for _, sh := range f.shards {
		if sh.gatePrim != nil {
			sh.gatePrim.Install(next) //vialint:ignore errwrap monotone install; a same-epoch rejection means it is already current
		}
		if sh.gateStby != nil {
			sh.gateStby.Install(next) //vialint:ignore errwrap monotone install; a same-epoch rejection means it is already current
		}
	}
}

// KillShard implements faults.ShardTarget: the shard's primary dies
// abruptly — listener closed, WAL released, in-flight RPCs severed. The
// warm standby keeps tailing until promoted (or auto-promotes).
func (f *Fleet) KillShard(id int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	sh, ok := f.shards[id]
	if !ok {
		return fmt.Errorf("ring: no shard %d", id)
	}
	if sh.killed {
		return fmt.Errorf("ring: shard %d already killed", id)
	}
	sh.killed = true
	sh.httpPrim.Close() //vialint:ignore errwrap abrupt kill; the close error is the fault being injected
	return sh.primary.Close()
}

// PromoteShardStandby implements faults.ShardTarget.
func (f *Fleet) PromoteShardStandby(id int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	sh, ok := f.shards[id]
	if !ok {
		return fmt.Errorf("ring: no shard %d", id)
	}
	if sh.promoted {
		return nil
	}
	if _, err := sh.standby.Promote(); err != nil {
		return err
	}
	sh.promoted = true
	f.promotions++
	return nil
}

// AddShard implements faults.ShardTarget: grow the ring by one shard and
// rebalance. Order is the heart of the protocol — the epoch+1 map is
// installed on the router and every gate BEFORE the moved pairs' WAL
// records are exported, so from the install onward the old owners 307
// those pairs away and produce no new records for them; the export is
// therefore complete, not racing a moving tail.
func (f *Fleet) AddShard() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("ring: fleet closed")
	}
	id := f.nextID
	f.nextID++
	sh, err := f.listenShard(id)
	if err != nil {
		return err
	}
	next, err := f.cur.WithShardAdded(Shard{ID: id, URL: sh.url, Standby: sh.sURL})
	if err != nil {
		return err
	}
	old := f.cur
	if err := f.openShard(sh, next); err != nil {
		return err
	}
	f.shards[id] = sh
	f.installMapLocked(next)

	// Replay just the moved pairs into the new shard, oldest shard first.
	for _, src := range f.shards {
		if src.id == id {
			continue
		}
		var moved []wal.Record
		err := src.activeLocked().ExportRecords(func(a, b int32) bool {
			return old.OwnerShard(a, b).ID == src.id && next.OwnerShard(a, b).ID == id
		}, func(rec wal.Record) error {
			moved = append(moved, rec)
			return nil
		})
		if err != nil {
			return err
		}
		if len(moved) == 0 {
			continue
		}
		if err := sh.primary.ImportRecords(moved); err != nil {
			return err
		}
	}
	f.rebalances++
	return nil
}

// RemoveShard implements faults.ShardTarget: drain a shard — epoch+1 map
// first (its pairs redirect to their new owners immediately), then replay
// every pair it owned onto the new owner, then shut it down.
func (f *Fleet) RemoveShard(id int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	sh, ok := f.shards[id]
	if !ok {
		return fmt.Errorf("ring: no shard %d", id)
	}
	next, err := f.cur.WithShardRemoved(id)
	if err != nil {
		return err
	}
	old := f.cur
	f.installMapLocked(next)

	// Group the drained shard's records by their new owner, preserving
	// LSN order within each group.
	byOwner := make(map[int][]wal.Record)
	err = sh.activeLocked().ExportRecords(func(a, b int32) bool {
		return old.OwnerShard(a, b).ID == id
	}, func(rec wal.Record) error {
		src, dst, _ := controller.RecordPair(rec)
		o := next.OwnerShard(src, dst).ID
		byOwner[o] = append(byOwner[o], rec)
		return nil
	})
	if err != nil {
		return err
	}
	for owner, recs := range byOwner {
		dst, ok := f.shards[owner]
		if !ok {
			return fmt.Errorf("ring: rebalance target shard %d missing", owner)
		}
		if err := dst.activeLocked().ImportRecords(recs); err != nil {
			return err
		}
	}
	f.closeShardLocked(sh)
	delete(f.shards, id)
	f.rebalances++
	return nil
}

// closeShardLocked tears one shard down, tolerating already-dead pieces.
func (f *Fleet) closeShardLocked(sh *fleetShard) {
	if sh.httpPrim == nil && sh.lnPrim != nil {
		sh.lnPrim.Close() //vialint:ignore errwrap teardown close; nothing to recover
	}
	if sh.httpStby == nil && sh.lnStby != nil {
		sh.lnStby.Close() //vialint:ignore errwrap teardown close; nothing to recover
	}
	if sh.httpPrim != nil {
		sh.httpPrim.Close() //vialint:ignore errwrap teardown close; nothing to recover
	}
	if sh.httpStby != nil {
		sh.httpStby.Close() //vialint:ignore errwrap teardown close; nothing to recover
	}
	if sh.primary != nil && !sh.killed {
		sh.primary.Close() //vialint:ignore errwrap teardown close; nothing to recover
	}
	if sh.standby != nil {
		sh.standby.Close() //vialint:ignore errwrap teardown close; nothing to recover
	}
}

// Close tears the whole fleet down. Idempotent.
func (f *Fleet) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	if f.router != nil {
		f.router.Close()
	}
	if f.routerHTTP != nil {
		f.routerHTTP.Close() //vialint:ignore errwrap teardown close; nothing to recover
	}
	for _, sh := range f.shards {
		f.closeShardLocked(sh)
	}
	return nil
}
