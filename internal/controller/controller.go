// Package controller implements Via's centralized controller (§3.1,
// Figure 7) as an HTTP/JSON service: relays register their media addresses,
// clients push per-call measurement reports and ask which relaying option to
// use (over a control stream upgraded from HTTP, control.go). Relay
// selection is delegated to a pluggable core.Strategy — the full Via
// algorithm in production, or a baseline for controlled experiments.
//
// The control exchange per call is deliberately minimal (one report, one
// decision — the §7 scalability budget). Time is virtualized: a TimeScale
// of N means one wall-clock second advances the algorithm's clock by N
// hours, letting a minutes-long testbed run cover multi-day prediction
// epochs.
package controller

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Config parameterizes the controller.
type Config struct {
	// Strategy makes the relaying decisions. Required. Durability (WALDir)
	// and standby operation additionally require it to implement
	// StatefulStrategy (core.Via does).
	Strategy core.Strategy
	// TimeScale converts wall-clock seconds to algorithm hours. 0 means
	// real time (1 hour per hour).
	TimeScale float64
	// RelayTTL expires relays that have not re-registered (heartbeat)
	// within this duration; 0 means relays never expire. Expired relays
	// disappear from the directory, so clients stop routing through them —
	// the controller needs no direct relay monitoring beyond this (§3.1:
	// end-to-end measurements already reflect degradation; the TTL covers
	// outright death).
	RelayTTL time.Duration
	// Metrics, when set, receives the controller's operational telemetry
	// (request latency, choose/report/panic counts, live relays) and is
	// served on GET /metrics in Prometheus text format. Share one registry
	// across controller, strategy, relays, and clients to get a single
	// fleet-wide scrape endpoint. Nil disables both collection and the
	// endpoint's content (the route still answers, empty).
	Metrics *obs.Registry

	// WALDir enables durability: every choose/report is appended to a
	// write-ahead log there before it reaches the strategy, and snapshots
	// land in WALDir/snapshots. Use Open (not New) when set. Empty disables
	// durability (the pre-existing in-memory mode).
	WALDir string
	// WALSyncInterval is the WAL group-commit window (see wal.Options).
	// 0 = the wal package default; negative = fsync per append.
	WALSyncInterval time.Duration
	// WALSegmentBytes is the WAL segment rotation size (see wal.Options).
	// 0 = the wal package default.
	WALSegmentBytes int64
	// SnapshotEvery takes a background snapshot after this many applied
	// records, then truncates the covered WAL prefix. 0 = default 4096;
	// negative disables automatic snapshots (forced ones still work).
	SnapshotEvery int

	// StandbyOf, when non-empty, starts the server as a warm standby
	// tailing the primary controller at this base URL: it replicates the
	// primary's WAL into its own, applies every record, and refuses
	// decision traffic until promoted.
	StandbyOf string
	// LeaseTimeout is how long the standby tolerates silence from the
	// primary (no records, no heartbeats) before the lease is considered
	// lapsed. Default 2s.
	LeaseTimeout time.Duration
	// HeartbeatInterval is how often the primary's WAL stream emits a
	// heartbeat when idle. Default LeaseTimeout/4.
	HeartbeatInterval time.Duration
	// AutoPromote lets the standby promote itself when the lease lapses.
	// Without it, promotion requires POST /v1/promote (or viactl promote).
	AutoPromote bool

	// Admission bounds concurrency on /v1/choose and /v1/report; excess
	// load is shed with 503 + Retry-After. Zero value = no limits.
	Admission AdmissionConfig

	// Clock supplies wall time (nil = time.Now). Injected by tests that
	// need a controlled virtual clock; replay never consults it —
	// timestamps replayed from the WAL come from the records themselves.
	Clock func() time.Time
}

// Server states (readiness) and roles (lease).
const (
	StateReplaying = "replaying" // restoring snapshot / replaying WAL
	StateStandby   = "standby"   // warm replica, refusing decision traffic
	StateReady     = "ready"     // serving decisions

	RolePrimary = "primary"
	RoleStandby = "standby"
)

// Server is the controller service. Mount Handler on an http.Server.
//
// The server is hardened against misbehaving clients and operational
// faults: a panic in any handler (a bad request tripping a strategy edge
// case) is recovered per-request instead of killing selection for
// everyone, /v1/health reports liveness for load balancers and the fault
// harness, and Shutdown drains in-flight choose/report requests before
// returning so restarts lose no measurements.
type Server struct {
	cfg   Config
	clock func() time.Time

	mu     sync.RWMutex
	relays map[netsim.RelayID]relayEntry // guarded by mu

	reports   atomic.Int64
	chooses   atomic.Int64
	panics    atomic.Int64
	lastPanic atomic.Value // string: stack of the most recent panic

	draining atomic.Bool
	// inflight counts requests currently inside Handler. A plain counter,
	// not a WaitGroup: requests keep arriving (and must be 503ed) while
	// Shutdown waits, and WaitGroup.Add concurrent with Wait is misuse.
	inflight atomic.Int64

	// Virtual clock: nowHours = baseHours + elapsed-since-baseTime ×
	// TimeScale. Recovery and promotion reset the pair so algorithm time
	// resumes from the last WAL record instead of rewinding to zero.
	clockMu   sync.RWMutex
	baseHours float64   // guarded by clockMu
	baseTime  time.Time // guarded by clockMu
	start     time.Time // process start, for uptime reporting only

	// Durability. walMu serializes WAL append + strategy apply so log
	// order is apply order — the invariant deterministic replay rests on.
	wlog          *wal.Log
	walMu         sync.Mutex
	lastTHours    float64 // guarded by walMu — newest record timestamp
	sinceSnapshot int     // guarded by walMu — applied records since last snapshot
	appliedLSN    atomic.Uint64
	snapshotting  atomic.Bool

	// HA / lease.
	term      atomic.Uint64
	roleVal   atomic.Value // string: RolePrimary | RoleStandby
	stateVal  atomic.Value // string: StateReplaying | StateStandby | StateReady
	standby   *standbyRunner
	promoteMu sync.Mutex // serializes role transitions

	// Admission control.
	limChoose *limiter
	limReport *limiter

	streams *StreamServer // control streams (choose/report frames)

	// Telemetry handles, pre-resolved at construction so the request path
	// pays one atomic per event. All are valid no-op instruments when
	// Config.Metrics is nil.
	mLatency          *obs.Histogram
	mChooses          *obs.Counter
	mReports          *obs.Counter
	mPanics           *obs.Counter
	mSnapshotBytes    *obs.Gauge
	mLeaseTransitions *obs.Counter
	mStreamLag        *obs.Gauge

	mux *http.ServeMux
}

// New builds an in-memory controller (no durability). It starts ready, as
// primary. For a durable or standby controller use Open.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.stateVal.Store(StateReady)
	return s
}

// Open builds a durable controller: it opens the WAL in cfg.WALDir,
// restores the latest snapshot, replays the log tail (reaching the exact
// state of the pre-crash process), and then either assumes the primary
// role under a fresh term or — when cfg.StandbyOf is set — starts tailing
// that primary as a warm standby. What the restart cost goes to
// cfg.Metrics: via_controller_recovery_seconds (wall time of the WAL open,
// snapshot restore and replay) and via_controller_recovery_records
// (records replayed behind the snapshot). Callers must Close the server to
// release the WAL.
func Open(cfg Config) (*Server, error) {
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("controller: Open requires WALDir")
	}
	if _, ok := cfg.Strategy.(StatefulStrategy); !ok && cfg.Strategy != nil {
		return nil, fmt.Errorf("controller: strategy %q does not implement StatefulStrategy; durability needs snapshot support", cfg.Strategy.Name())
	}
	s := newServer(cfg)
	start := time.Now()
	wlog, err := wal.Open(cfg.WALDir, wal.Options{
		SyncInterval: cfg.WALSyncInterval,
		SegmentBytes: cfg.WALSegmentBytes,
		Metrics:      cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	s.wlog = wlog
	replayed, err := s.recoverFromWAL()
	if err != nil {
		wlog.Close() //vialint:ignore errwrap error path; the recovery failure is already being returned
		return nil, err
	}
	cfg.Metrics.Gauge("via_controller_recovery_seconds").Set(time.Since(start).Seconds())
	cfg.Metrics.Gauge("via_controller_recovery_records").Set(float64(replayed))
	// Algorithm time resumes from the newest restored record.
	s.walMu.Lock()
	restored := s.lastTHours
	s.walMu.Unlock()
	s.clockMu.Lock()
	s.baseHours = restored
	s.baseTime = s.clock()
	s.clockMu.Unlock()

	if cfg.StandbyOf != "" {
		s.roleVal.Store(RoleStandby)
		s.stateVal.Store(StateStandby)
		s.standby = newStandbyRunner(s, cfg.StandbyOf)
		go s.standby.run()
		return s, nil
	}
	// Assume leadership: a new term marks this incarnation in the log so
	// replicas replaying it agree on who led when.
	term := s.term.Load() + 1
	s.term.Store(term)
	if err := s.appendTerm(term); err != nil {
		wlog.Close() //vialint:ignore errwrap error path; the append failure is already being returned
		return nil, err
	}
	if err := wlog.Sync(); err != nil {
		wlog.Close() //vialint:ignore errwrap error path; the sync failure is already being returned
		return nil, err
	}
	s.stateVal.Store(StateReady)
	return s, nil
}

// newServer wires routes and telemetry; the caller decides the initial
// state (New → ready; Open → replaying until recovery finishes).
func newServer(cfg Config) *Server {
	if cfg.Strategy == nil {
		panic("controller: Strategy is required")
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1.0 / 3600 // real time: seconds → hours
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 4096
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 2 * time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = cfg.LeaseTimeout / 4
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	now := clock()
	s := &Server{
		cfg:      cfg,
		clock:    clock,
		start:    now,
		baseTime: now,
		relays:   make(map[netsim.RelayID]relayEntry),
		mux:      http.NewServeMux(),
	}
	s.roleVal.Store(RolePrimary)
	s.stateVal.Store(StateReplaying)

	m := cfg.Metrics
	s.mLatency = m.Histogram("via_controller_request_seconds", obs.LatencyBuckets())
	s.mChooses = m.Counter("via_controller_chooses_total")
	s.mReports = m.Counter("via_controller_reports_total")
	s.mPanics = m.Counter("via_controller_panics_total")
	s.mSnapshotBytes = m.Gauge("via_controller_snapshot_bytes")
	s.mLeaseTransitions = m.Counter("via_controller_lease_transitions_total")
	s.mStreamLag = m.Gauge("via_controller_wal_stream_lag_records")
	m.GaugeFunc("via_controller_inflight_requests", func() float64 {
		return float64(s.inflight.Load())
	})
	m.GaugeFunc("via_controller_live_relays", func() float64 {
		return float64(s.liveRelays())
	})
	m.GaugeFunc("via_controller_draining_relays", func() float64 {
		return float64(s.countRelays(func(e relayEntry) bool { return e.draining }))
	})

	s.limChoose = newLimiter(cfg.Admission,
		m.Counter(obs.L("via_controller_shed_requests_total", "endpoint", "choose")))
	s.limReport = newLimiter(cfg.Admission,
		m.Counter(obs.L("via_controller_shed_requests_total", "endpoint", "report")))
	s.streams = NewStreamServer(s.serveMessage, m.Gauge("via_controller_control_streams"))

	s.mux.HandleFunc("POST /v1/relays/register", s.handleRegister)
	s.mux.HandleFunc("GET /v1/relays", s.handleRelays)
	s.mux.Handle("GET "+transport.ControlPath, s.streams)
	s.mux.HandleFunc("POST /v1/choose", s.handleChoose)
	s.mux.HandleFunc("POST /v1/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/topk", s.handleTopK)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.HandleFunc("GET /v1/livez", s.handleHealth)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/lease", s.handleLease)
	s.mux.HandleFunc("GET /v1/wal/stream", s.handleWALStream)
	s.mux.HandleFunc("GET /v1/wal/snapshot", s.handleWALSnapshot)
	s.mux.HandleFunc("POST /v1/admin/snapshot", s.handleAdminSnapshot)
	s.mux.HandleFunc("POST /v1/promote", s.handlePromote)
	s.mux.HandleFunc("GET /v1/budget/digest", s.handleBudgetDigest)
	s.mux.HandleFunc("POST /v1/budget/merged", s.handleBudgetMerged)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// State returns the readiness state (replaying / standby / ready).
func (s *Server) State() string { st, _ := s.stateVal.Load().(string); return st }

// Role returns the lease role (primary / standby).
func (s *Server) Role() string { r, _ := s.roleVal.Load().(string); return r }

// Term returns the current leadership term.
func (s *Server) Term() uint64 { return s.term.Load() }

// AppliedLSN returns the LSN of the newest record applied to the strategy
// (0 when durability is off or nothing is logged yet).
func (s *Server) AppliedLSN() uint64 { return s.appliedLSN.Load() }

// Close severs the server's control streams (and refuses new ones) and
// releases durability resources: it waits out an in-flight background
// snapshot, stops the standby tailer, and closes the WAL. Callers that want
// zero loss should Shutdown (drain) first.
func (s *Server) Close() error {
	s.streams.Close()
	if s.standby != nil {
		s.standby.requestStop()
		<-s.standby.done
	}
	if s.wlog == nil {
		return nil
	}
	s.waitSnapshots(2 * time.Second)
	return s.wlog.Close()
}

// Handler returns the HTTP handler: the API mux wrapped in panic
// recovery and in-flight accounting (for graceful shutdown).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.guard(func() { s.mux.ServeHTTP(w, r) }, func(status int, text string) { http.Error(w, text, status) })
	})
}

// guard serves one request, whichever carrier brought it, inside the
// guards every request gets: the in-flight count Shutdown waits on, drain →
// 503, panic recovery → 500, and the via_controller_request_seconds
// observation. refuse answers a request the guards turn away.
func (s *Server) guard(serve func(), refuse func(status int, text string)) {
	// Count in before checking the drain flag: a request admitted here is
	// either refused below or fully drained by Shutdown.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		refuse(http.StatusServiceUnavailable, msgDraining)
		return
	}
	start := time.Now()
	defer func() {
		if rec := recover(); rec != nil {
			s.recordPanic()
			refuse(http.StatusInternalServerError, msgInternal)
		}
		s.mLatency.Observe(time.Since(start).Seconds())
	}()
	serve()
}

// Refusal texts shared by both carriers of choose and report.
const (
	msgDraining = "controller draining"
	msgInternal = "internal error"
	msgShed     = "controller overloaded, request shed"
)

// recordPanic counts a recovered handler panic and keeps its stack.
func (s *Server) recordPanic() {
	s.panics.Add(1)
	s.mPanics.Inc()
	s.lastPanic.Store(string(debug.Stack()))
}

// serveMessage serves one control-stream message inside the guards a POST
// gets from Handler: it decodes the binary body, hands the request to
// choose or report (done is the stream's), and appends the binary reply
// to out.
func (s *Server) serveMessage(op transport.Op, src, dst int32, body []byte, done <-chan struct{}, out []byte) (status int, reply []byte) {
	s.guard(func() {
		switch op {
		case transport.OpChoose:
			status, reply = s.streamChoose(transport.ChooseMsg{Src: src, Dst: dst}, body, done, out)
		case transport.OpReport:
			status, reply = s.streamReport(transport.ReportMsg{Src: src, Dst: dst}, body, done, out)
		default:
			status, reply = http.StatusBadRequest, append(out, "unknown control op"...)
		}
	}, func(code int, text string) { status, reply = code, append(out, text...) })
	return status, reply
}

// streamChoose decodes a choose body into req, which holds the header's
// pair, and answers it.
func (s *Server) streamChoose(req transport.ChooseMsg, body []byte, done <-chan struct{}, out []byte) (int, []byte) {
	if err := req.DecodeBinary(body); err != nil {
		return appendError(out, http.StatusBadRequest, "bad request: ", err)
	}
	d, status, text := s.choose(done, req)
	if status != http.StatusOK {
		return status, append(out, text...)
	}
	reply, err := transport.AppendDecision(out, d.Option, d.Repair)
	if err != nil {
		return appendError(out, http.StatusInternalServerError, "encode reply: ", err)
	}
	return http.StatusOK, reply
}

// streamReport is streamChoose for a report, whose 200 has no body.
func (s *Server) streamReport(req transport.ReportMsg, body []byte, done <-chan struct{}, out []byte) (int, []byte) {
	if err := req.DecodeBinary(body); err != nil {
		return appendError(out, http.StatusBadRequest, "bad request: ", err)
	}
	status, text := s.report(done, req)
	return status, append(out, text...)
}

// Shutdown drains the server: new requests are rejected with 503 while
// in-flight choose/report calls finish. It returns nil once drained, or
// the context's error if the deadline expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// nowHours returns the virtualized algorithm time: the restored base plus
// scaled wall time since the base was set. Fresh servers have base 0, so
// this reduces to the original elapsed×TimeScale; recovered or promoted
// servers continue from the newest WAL record instead of rewinding.
func (s *Server) nowHours() float64 {
	s.clockMu.RLock()
	base, since := s.baseHours, s.clock().Sub(s.baseTime)
	s.clockMu.RUnlock()
	return base + since.Seconds()*s.cfg.TimeScale
}

// notReady is the refusal of decision traffic by a replaying or standby
// controller, which must not serve (or log) decisions; "" once ready.
func (s *Server) notReady() string {
	if st := s.State(); st != StateReady {
		return "controller not ready: " + st
	}
	return ""
}

// requireReady gates the HTTP decision endpoints on notReady. Returns false
// after writing the 503.
func (s *Server) requireReady(w http.ResponseWriter) bool {
	if msg := s.notReady(); msg != "" {
		w.Header().Set("Retry-After", "1")
		http.Error(w, msg, http.StatusServiceUnavailable)
		return false
	}
	return true
}

// decode reads a POST body, at most transport.MaxBodyBytes, and decodes it
// through encoding/json. On failure it has already answered — 413 for an
// oversized body, 400 for a failed read or decode — and returns false.
func decode[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	var v T
	body := transport.ReadRequest(w, r)
	if body == nil {
		return v, false
	}
	defer body.Release()
	if err := json.Unmarshal(body.B, &v); err != nil {
		badRequest(w, err)
		return v, false
	}
	return v, true
}

func badRequest(w http.ResponseWriter, err error) {
	http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	//vialint:ignore errwrap an encode failure means the client hung up; there is no one left to tell
	_ = json.NewEncoder(w).Encode(v)
}

// writeAnswer writes choose's or report's answer as an HTTP response: a
// 200 is v through reply, any other status the error text as http.Error
// writes it (a 503 with Retry-After).
func writeAnswer(w http.ResponseWriter, status int, text string, v any) {
	if status == http.StatusOK {
		reply(w, v)
		return
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, text, status)
}

// appendError appends an error text to dst under status.
func appendError(dst []byte, status int, prefix string, err error) (int, []byte) {
	return status, append(append(dst, prefix...), err.Error()...)
}

// replyStatus is reply with an explicit status code (readiness 503s carry
// a JSON body too).
func replyStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//vialint:ignore errwrap an encode failure means the client hung up; there is no one left to tell
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[transport.RegisterRelayRequest](w, r)
	if !ok {
		return
	}
	if req.Addr == "" {
		http.Error(w, "missing addr", http.StatusBadRequest)
		return
	}
	now := time.Now()
	s.mu.Lock()
	// The latest heartbeat is the whole truth about a relay: a non-draining
	// one clears the mark (drain is reversible — maintenance canceled — and
	// a restarted relay starts clean).
	s.relays[req.RelayID] = relayEntry{addr: req.Addr, seen: now, draining: req.Draining}
	// Registration is the natural sweep point: drop entries whose
	// heartbeat lapsed long ago so the directory cannot grow without bound
	// as relays churn.
	if s.cfg.RelayTTL > 0 {
		for id, e := range s.relays {
			if now.Sub(e.seen) > 2*s.cfg.RelayTTL {
				delete(s.relays, id)
			}
		}
	}
	s.mu.Unlock()
	reply(w, transport.RegisterRelayResponse{OK: true})
}

// relayEntry is one row of the relay directory: where the relay's media
// socket is, when it last registered, and whether that heartbeat advertised
// drain mode (still alive, but no new calls should land on it).
type relayEntry struct {
	addr     string
	seen     time.Time
	draining bool
}

// relayLive reports whether e's heartbeat has not lapsed at now.
func (s *Server) relayLive(e relayEntry, now time.Time) bool {
	return s.cfg.RelayTTL <= 0 || now.Sub(e.seen) <= s.cfg.RelayTTL
}

// liveRelays counts registered relays whose heartbeat has not lapsed.
func (s *Server) liveRelays() int {
	now := time.Now()
	return s.countRelays(func(e relayEntry) bool { return s.relayLive(e, now) })
}

// countRelays counts the directory entries pred holds for.
func (s *Server) countRelays(pred func(relayEntry) bool) int {
	n := 0
	s.mu.RLock()
	for _, e := range s.relays {
		if pred(e) {
			n++
		}
	}
	s.mu.RUnlock()
	return n
}

// usableRelays lists the relays new calls may use, in id order: heartbeat
// not lapsed (a lapsed relay is treated as dead) and not draining (existing
// calls migrate off, new ones go elsewhere).
func (s *Server) usableRelays() []transport.RelayInfo {
	now := time.Now()
	s.mu.RLock()
	out := make([]transport.RelayInfo, 0, len(s.relays))
	for id, e := range s.relays {
		if s.relayLive(e, now) && !e.draining {
			out = append(out, transport.RelayInfo{RelayID: id, Addr: e.addr})
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].RelayID < out[j].RelayID })
	return out
}

func (s *Server) handleRelays(w http.ResponseWriter, _ *http.Request) {
	reply(w, transport.RelayListResponse{Relays: s.usableRelays()})
}

// handleChoose carries choose over plain POST, in JSON — for curl and
// bench/ — through the same admission, readiness and decision as a
// control-stream message.
func (s *Server) handleChoose(w http.ResponseWriter, r *http.Request) {
	jr, ok := decode[transport.ChooseRequest](w, r)
	if !ok {
		return
	}
	req := transport.ChooseMsg{Src: jr.Src, Dst: jr.Dst, Repair: jr.RepairCandidates}
	if len(jr.Candidates) > 0 {
		req.Candidates = make([]netsim.Option, len(jr.Candidates))
		for i, c := range jr.Candidates {
			req.Candidates[i] = c.Option()
		}
	}
	d, status, text := s.choose(r.Context().Done(), req)
	writeAnswer(w, status, text, transport.ChooseResponse{Option: transport.ToWireOption(d.Option), Repair: d.Repair})
}

// handleReport carries report over plain POST, as handleChoose does choose.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	jr, ok := decode[transport.ReportRequest](w, r)
	if !ok {
		return
	}
	status, text := s.report(r.Context().Done(), transport.ReportMsg{
		Src: jr.Src, Dst: jr.Dst, Option: jr.Option.Option(), Metrics: jr.Metrics.Metrics(),
		DurationSec: jr.DurationSec, Repair: jr.Repair,
	})
	writeAnswer(w, status, text, transport.ReportResponse{OK: true})
}

// choose is the one choose implementation, whichever carrier brought the
// request: admission under the choose limiter (done is the caller's
// hang-up), readiness, and a durable decision. Any status but 200 comes
// with its error text.
func (s *Server) choose(done <-chan struct{}, req transport.ChooseMsg) (transport.Decision, int, string) {
	d := transport.Decision{Option: netsim.DirectOption()}
	if !s.limChoose.admit(done) {
		return d, http.StatusServiceUnavailable, msgShed
	}
	defer s.limChoose.release()
	if msg := s.notReady(); msg != "" {
		return d, http.StatusServiceUnavailable, msg
	}
	// An empty candidate set has exactly one answer — the default path.
	// Answer it directly rather than handing strategies a nil slice to
	// index. Nothing reaches the strategy, so nothing needs the WAL either.
	if len(req.Candidates) > 0 {
		call := core.Call{
			Src:    netsim.ASID(req.Src),
			Dst:    netsim.ASID(req.Dst),
			THours: s.nowHours(),
		}
		var err error
		if d.Option, d.Repair, err = s.applyChoose(call, req.Candidates, req.Repair); err != nil {
			// The decision could not be made durable; pretending otherwise
			// would hand out state the log cannot reproduce.
			return d, http.StatusInternalServerError, "durability failure: " + err.Error()
		}
	}
	s.chooses.Add(1)
	s.mChooses.Inc()
	return d, http.StatusOK, ""
}

// report is the one report implementation, as choose is for choose.
func (s *Server) report(done <-chan struct{}, req transport.ReportMsg) (int, string) {
	if !s.limReport.admit(done) {
		return http.StatusServiceUnavailable, msgShed
	}
	defer s.limReport.release()
	if msg := s.notReady(); msg != "" {
		return http.StatusServiceUnavailable, msg
	}
	if !req.Metrics.Valid() {
		return http.StatusBadRequest, "invalid metrics"
	}
	call := core.Call{
		Src:    netsim.ASID(req.Src),
		Dst:    netsim.ASID(req.Dst),
		THours: s.nowHours(),
	}
	if err := s.applyReport(call, req.Option, transport.ToWireMetrics(req.Metrics), req.Repair, req.DurationSec); err != nil {
		return http.StatusInternalServerError, "durability failure: " + err.Error()
	}
	s.reports.Add(1)
	s.mReports.Inc()
	return http.StatusOK, ""
}

// handleTopK exposes the strategy's pruned candidate set for a pair — the
// operator's window into why calls route where they do. Only available when
// the strategy is the full Via algorithm.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	via, ok := s.cfg.Strategy.(*core.Via)
	if !ok {
		http.Error(w, "strategy does not expose top-k", http.StatusNotFound)
		return
	}
	src, err1 := strconv.Atoi(r.URL.Query().Get("src"))
	dst, err2 := strconv.Atoi(r.URL.Query().Get("dst"))
	if err1 != nil || err2 != nil {
		http.Error(w, "src and dst are required integers", http.StatusBadRequest)
		return
	}
	call := core.Call{Src: netsim.ASID(src), Dst: netsim.ASID(dst), THours: s.nowHours()}
	// Candidate set: direct plus a bounce through every relay /v1/relays
	// would list (the operator can also pass explicit candidates via
	// /v1/choose), so the diagnostic view never recommends a path through
	// a dead or draining relay.
	cands := []netsim.Option{netsim.DirectOption()}
	for _, r := range s.usableRelays() {
		cands = append(cands, netsim.BounceOption(r.RelayID))
	}

	topk := via.TopKFor(call, cands)
	resp := transport.TopKResponse{Src: int32(src), Dst: int32(dst), Metric: via.Metric().String()}
	for _, c := range topk {
		m := via.Metric()
		resp.TopK = append(resp.TopK, transport.TopKEntry{
			Option:  transport.ToWireOption(c.Option),
			Mean:    c.Pred.Mean[m],
			SEM:     c.Pred.SEM[m],
			Samples: c.Pred.N,
			Tomo:    c.Pred.Tomo,
		})
	}
	reply(w, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	n := len(s.relays)
	s.mu.RUnlock()
	reply(w, transport.StatsResponse{
		Relays:  n,
		Reports: s.reports.Load(),
		Chooses: s.chooses.Load(),
		Panics:  s.panics.Load(),
	})
}

// handleHealth is the liveness probe (/v1/health and /v1/livez): cheap, no
// strategy involvement, answers in every state — a replaying or standby
// process is alive, just not ready.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	reply(w, transport.HealthResponse{
		OK:        true,
		Relays:    s.liveRelays(),
		UptimeSec: time.Since(s.start).Seconds(),
		Draining:  s.draining.Load(),
		State:     s.State(),
	})
}

// handleReadyz is the readiness probe: 200 only once decision traffic can
// be served, 503 with the state (replaying / standby) otherwise, so load
// balancers and the testbed never route to a controller mid-recovery.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := s.State()
	resp := transport.ReadyResponse{
		OK:         st == StateReady,
		State:      st,
		Term:       s.term.Load(),
		AppliedLSN: s.appliedLSN.Load(),
	}
	code := http.StatusOK
	if !resp.OK {
		code = http.StatusServiceUnavailable
	}
	replyStatus(w, code, resp)
}

// handleMetrics serves the shared registry in Prometheus text exposition
// format. With no registry configured the body is empty — still a 200, so
// scrapers distinguish "no telemetry" from "controller down".
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	//vialint:ignore errwrap a failed write means the scraper hung up; nothing to do about it here
	_ = s.cfg.Metrics.WriteText(w)
}
