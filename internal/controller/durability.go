package controller

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Durability: every state-bearing request is appended to the WAL before it
// is applied to the strategy, under one mutex, so log order IS apply order.
// Replaying the log therefore reproduces the exact state sequence —
// including the strategy's internal RNG draws, because choose records are
// re-executed (and their results discarded) rather than patched in.
//
// Timestamps in replay come from the records, never from the wall clock:
// the virtual call time (THours) is computed once, on the live request
// path, written into the record, and read back verbatim on replay. The
// virtual clock itself resumes from the last record's timestamp (plus the
// snapshot's), so restarts never rewind algorithm time.

// StatefulStrategy is a strategy whose full decision state can be captured
// and restored — what snapshots persist. core.Via implements it.
type StatefulStrategy interface {
	core.Strategy
	SaveState(w io.Writer) error
	LoadState(r io.Reader) error
}

// stateCapturer is a StatefulStrategy that splits a capture in two: a
// copy, which must run under walMu to stay aligned with the log, and an
// encode, which need not. core.Via implements it. A strategy without it
// (test fakes) is captured whole by SaveState under walMu.
type stateCapturer interface {
	CaptureState() (func(io.Writer) error, error)
}

// WAL record types.
const (
	recChoose wal.Type = 1
	recReport wal.Type = 2
	recTerm   wal.Type = 3
	recBudget wal.Type = 4
)

// walChoose is the durable form of one /v1/choose decision input.
//
// Repair carries the caller's offered repair-scheme candidates. The field
// is versioned by omission: records written before the repair layer (or by
// clients not offering repair) have no "repair" key, decode to a nil
// slice, and replay exactly as before — the repair bandit is never
// consulted, so its RNG stays untouched and legacy logs replay
// bit-identically.
//
//via:walrecord
type walChoose struct {
	THours float64                `json:"t_hours"`
	Src    int32                  `json:"src"`
	Dst    int32                  `json:"dst"`
	Cands  []transport.WireOption `json:"cands"`
	Repair []string               `json:"repair,omitempty"`
}

// walReport is the durable form of one /v1/report observation. Repair and
// DurationSec follow the same versioning-by-omission rule as walChoose.
//
//via:walrecord
type walReport struct {
	THours      float64               `json:"t_hours"`
	Src         int32                 `json:"src"`
	Dst         int32                 `json:"dst"`
	Option      transport.WireOption  `json:"option"`
	Metrics     transport.WireMetrics `json:"metrics"`
	Repair      string                `json:"repair,omitempty"`
	DurationSec float64               `json:"duration_sec,omitempty"`
}

// walTerm marks a leadership acquisition: every boot-as-primary and every
// promotion appends one, so replicas replaying the log always agree on the
// current term.
//
//via:walrecord
type walTerm struct {
	Term uint64 `json:"term"`
}

// walBudget records a fleet-merged §4.6 budget-threshold install (shard
// ring mode): the router aggregates every shard's benefit digest and
// pushes the merged threshold to each shard, which logs it before applying
// so replayed gate decisions match the live ones. Logs written before the
// ring layer never contain this type, and replay without it leaves the
// strategy on its local estimator — exactly the pre-ring behavior.
//
//via:walrecord
type walBudget struct {
	N         int64   `json:"n"`
	Threshold float64 `json:"threshold"`
}

const ctrlSnapshotVersion = 1

// ctrlSnapshot is the controller-level snapshot payload: the strategy's
// full state plus the controller state replay cannot rebuild once the
// covered WAL prefix is truncated.
//
//via:walrecord
type ctrlSnapshot struct {
	Version   int
	Term      uint64
	BaseHours float64 // virtual-clock position at capture
	Strategy  []byte  // StatefulStrategy.SaveState output
}

func snapDir(walDir string) string { return filepath.Join(walDir, "snapshots") }

// appendRecordLocked appends one encoded record. Callers encode before they
// take s.walMu: a record's bytes depend only on the request and the THours
// already computed for it, and log order is fixed here, by Append under the
// lock, so what the critical section must cover is the append and the apply.
// Append copies data, so a pooled encode buffer can be released on return.
// Caller holds s.walMu.
func (s *Server) appendRecordLocked(typ wal.Type, data []byte) (uint64, error) {
	lsn, err := s.wlog.Append(wal.Record{Type: typ, Data: data})
	if err != nil {
		return 0, err
	}
	s.appliedLSN.Store(lsn)
	return lsn, nil
}

// chooseRepairLocked consults the strategy's repair extension for the
// scheme, when the caller offered candidates and the strategy supports
// selection. The empty answer means "no repair". Caller holds s.walMu on
// the durable path (the strategy call must stay inside the log-order
// critical section).
func (s *Server) chooseRepairLocked(call core.Call, opt netsim.Option, schemes []string) string {
	if len(schemes) == 0 {
		return ""
	}
	rs, ok := s.cfg.Strategy.(core.RepairStrategy)
	if !ok {
		return ""
	}
	return rs.ChooseRepair(call, opt, schemes)
}

// observeRepairLocked folds a repair observation in, mirroring
// chooseRepairLocked's gating exactly — replay must make the same calls.
func (s *Server) observeRepairLocked(call core.Call, opt netsim.Option, scheme string, m transport.WireMetrics) {
	if scheme == "" {
		return
	}
	if rs, ok := s.cfg.Strategy.(core.RepairStrategy); ok {
		rs.ObserveRepair(call, opt, scheme, m.Metrics())
	}
}

// applyChoose runs one choose decision, writing it to the WAL first when
// durability is on. The append and the strategy call share walMu so a
// concurrent request cannot interleave between them — WAL order must equal
// apply order or replay diverges. schemes are the caller's offered repair
// candidates (nil = no repair); the returned scheme is empty when no
// repair was selected.
func (s *Server) applyChoose(call core.Call, cands []netsim.Option, schemes []string) (netsim.Option, string, error) {
	if s.wlog == nil {
		opt := s.cfg.Strategy.Choose(call, cands)
		return opt, s.chooseRepairLocked(call, opt, schemes), nil
	}
	rec := walChoose{THours: call.THours, Src: int32(call.Src), Dst: int32(call.Dst), Repair: schemes}
	if len(cands) > 0 { // nil stays nil: "cands":null, as the log has always spelled it
		rec.Cands = make([]transport.WireOption, len(cands))
	}
	for i, o := range cands {
		rec.Cands[i] = transport.ToWireOption(o)
	}
	buf := transport.GetBuffer()
	defer buf.Release()
	var err error
	if buf.B, err = rec.AppendJSON(buf.B); err != nil {
		return netsim.DirectOption(), "", fmt.Errorf("controller: marshal wal record: %w", err)
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if _, err := s.appendRecordLocked(recChoose, buf.B); err != nil {
		return netsim.DirectOption(), "", err
	}
	s.noteTHoursLocked(call.THours)
	opt := s.cfg.Strategy.Choose(call, cands)
	scheme := s.chooseRepairLocked(call, opt, schemes)
	s.maybeSnapshotLocked()
	return opt, scheme, nil
}

// applyReport folds one observation in, WAL-first like applyChoose. wm is
// the report's wire-form metrics — the exact bytes replay will see.
// scheme/durSec carry the call's repair outcome ("" = no repair ran).
func (s *Server) applyReport(call core.Call, opt netsim.Option, wm transport.WireMetrics, scheme string, durSec float64) error {
	call.DurationSec = durSec
	if s.wlog == nil {
		s.cfg.Strategy.Observe(call, opt, wm.Metrics())
		s.observeRepairLocked(call, opt, scheme, wm)
		return nil
	}
	rec := walReport{
		THours: call.THours, Src: int32(call.Src), Dst: int32(call.Dst),
		Option: transport.ToWireOption(opt), Metrics: wm,
		Repair: scheme, DurationSec: durSec,
	}
	buf := transport.GetBuffer()
	defer buf.Release()
	var err error
	if buf.B, err = rec.AppendJSON(buf.B); err != nil {
		return fmt.Errorf("controller: marshal wal record: %w", err)
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if _, err := s.appendRecordLocked(recReport, buf.B); err != nil {
		return err
	}
	s.noteTHoursLocked(call.THours)
	s.cfg.Strategy.Observe(call, opt, wm.Metrics())
	s.observeRepairLocked(call, opt, scheme, wm)
	s.maybeSnapshotLocked()
	return nil
}

// appendTerm records a leadership acquisition.
func (s *Server) appendTerm(term uint64) error {
	if s.wlog == nil {
		return nil
	}
	data, err := json.Marshal(walTerm{Term: term})
	if err != nil {
		return fmt.Errorf("controller: marshal wal record: %w", err)
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	_, err = s.appendRecordLocked(recTerm, data)
	return err
}

// noteTHoursLocked tracks the newest record timestamp for snapshot
// BaseHours. Caller holds s.walMu.
func (s *Server) noteTHoursLocked(th float64) {
	if th > s.lastTHours {
		s.lastTHours = th
	}
}

// applyRecord replays one WAL record into the strategy — the shared apply
// path of boot recovery and the standby tailer. Decision results are
// discarded: the point is the state transition (history, UCB arms, budget
// counters, RNG position), which re-execution reproduces exactly.
// Timestamps come from the record. Caller holds s.walMu (or is
// single-threaded recovery).
func (s *Server) applyRecordLocked(rec wal.Record) error {
	switch rec.Type {
	case recChoose:
		var r walChoose
		if err := r.DecodeJSON(rec.Data); err != nil {
			return fmt.Errorf("controller: decode choose record: %w", err)
		}
		cands := make([]netsim.Option, len(r.Cands))
		for i, c := range r.Cands {
			cands[i] = c.Option()
		}
		call := core.Call{Src: netsim.ASID(r.Src), Dst: netsim.ASID(r.Dst), THours: r.THours}
		opt := s.cfg.Strategy.Choose(call, cands)
		// Mirror the live path exactly: a record with repair candidates
		// re-draws the scheme (advancing the repair RNG identically); a
		// record without never touches the repair bandit.
		s.chooseRepairLocked(call, opt, r.Repair)
		s.noteTHoursLocked(r.THours)
	case recReport:
		var r walReport
		if err := r.DecodeJSON(rec.Data); err != nil {
			return fmt.Errorf("controller: decode report record: %w", err)
		}
		call := core.Call{Src: netsim.ASID(r.Src), Dst: netsim.ASID(r.Dst), THours: r.THours, DurationSec: r.DurationSec}
		s.cfg.Strategy.Observe(call, r.Option.Option(), r.Metrics.Metrics())
		s.observeRepairLocked(call, r.Option.Option(), r.Repair, r.Metrics)
		s.noteTHoursLocked(r.THours)
	case recTerm:
		var r walTerm
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return fmt.Errorf("controller: decode term record: %w", err)
		}
		s.term.Store(r.Term)
	case recBudget:
		var r walBudget
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return fmt.Errorf("controller: decode budget record: %w", err)
		}
		// Mirror the live install path: only a Via-backed strategy carries
		// the shared gate. A record logged by a Via controller but replayed
		// into a non-Via strategy is a config change, and the config is the
		// source of truth — skip it.
		if via, ok := s.cfg.Strategy.(*core.Via); ok {
			via.SetSharedBudgetThreshold(r.N, r.Threshold)
		}
	default:
		return fmt.Errorf("controller: unknown wal record type %d", rec.Type)
	}
	return nil
}

// DescribeRecord renders one controller WAL record for humans — the
// viactl wal-dump subcommand. The payload of every controller record is
// JSON, so the description is the type's name plus the payload verbatim.
func DescribeRecord(rec wal.Record) string {
	switch rec.Type {
	case recChoose:
		return fmt.Sprintf("choose %s", rec.Data)
	case recReport:
		return fmt.Sprintf("report %s", rec.Data)
	case recTerm:
		return fmt.Sprintf("term   %s", rec.Data)
	case recBudget:
		return fmt.Sprintf("budget %s", rec.Data)
	default:
		return fmt.Sprintf("unknown(type=%d) %d bytes", rec.Type, len(rec.Data))
	}
}

// decodeSnapshot decodes a controller snapshot payload and checks its
// version. It touches no server state, so callers may run it before
// taking walMu.
func decodeSnapshot(payload []byte) (*ctrlSnapshot, error) {
	var snap ctrlSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("controller: decode snapshot: %w", err)
	}
	if snap.Version != ctrlSnapshotVersion {
		return nil, fmt.Errorf("controller: snapshot version %d, want %d", snap.Version, ctrlSnapshotVersion)
	}
	return &snap, nil
}

// restoreSnapshotLocked loads snap, which covers lsn, into the strategy
// and restores the term, the virtual clock and the applied LSN. Caller
// holds s.walMu.
func (s *Server) restoreSnapshotLocked(lsn uint64, snap *ctrlSnapshot) error {
	stateful, ok := s.cfg.Strategy.(StatefulStrategy)
	if !ok {
		return fmt.Errorf("controller: strategy %q cannot restore state", s.cfg.Strategy.Name())
	}
	if err := stateful.LoadState(bytes.NewReader(snap.Strategy)); err != nil {
		return fmt.Errorf("controller: restore strategy state: %w", err)
	}
	s.term.Store(snap.Term)
	s.lastTHours = snap.BaseHours
	s.appliedLSN.Store(lsn)
	return nil
}

// recoverFromWAL restores the latest snapshot and replays the WAL tail,
// returning the number of records replayed. Runs once, from Open, before
// the server accepts decision traffic — but it mutates walMu-guarded
// state, so it holds the (uncontended) lock.
func (s *Server) recoverFromWAL() (int, error) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	from := uint64(1)
	lsn, payload, ok, err := wal.LatestSnapshot(snapDir(s.cfg.WALDir))
	if err != nil {
		return 0, err
	}
	if ok {
		snap, err := decodeSnapshot(payload)
		if err != nil {
			return 0, err
		}
		if err := s.restoreSnapshotLocked(lsn, snap); err != nil {
			return 0, err
		}
		from = lsn + 1
	}
	replayed := 0
	err = s.wlog.Replay(from, func(l uint64, rec wal.Record) error {
		if err := s.applyRecordLocked(rec); err != nil {
			return fmt.Errorf("lsn %d: %w", l, err)
		}
		s.appliedLSN.Store(l)
		replayed++
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("controller: wal replay: %w", err)
	}
	s.sinceSnapshot = replayed
	return replayed, nil
}

// captureSnapshotLocked copies the controller snapshot state at the
// current applied LSN and returns the encoder that serializes the payload.
// Caller holds s.walMu, so no apply can slide in between reading the LSN
// and copying the state. The encoder shares nothing with live state:
// callers run it after releasing walMu, so requests are not held up by
// the gob encodes.
func (s *Server) captureSnapshotLocked() (uint64, func() ([]byte, error), error) {
	stateful, ok := s.cfg.Strategy.(StatefulStrategy)
	if !ok {
		return 0, nil, fmt.Errorf("controller: strategy %q does not support snapshots", s.cfg.Strategy.Name())
	}
	var encodeState func(io.Writer) error
	if c, ok := stateful.(stateCapturer); ok {
		enc, err := c.CaptureState()
		if err != nil {
			return 0, nil, fmt.Errorf("controller: capture strategy state: %w", err)
		}
		encodeState = enc
	} else {
		var state bytes.Buffer
		if err := stateful.SaveState(&state); err != nil {
			return 0, nil, fmt.Errorf("controller: capture strategy state: %w", err)
		}
		encodeState = func(w io.Writer) error {
			_, err := w.Write(state.Bytes())
			return err
		}
	}
	snap := ctrlSnapshot{
		Version:   ctrlSnapshotVersion,
		Term:      s.term.Load(),
		BaseHours: s.lastTHours,
	}
	encode := func() ([]byte, error) {
		var state bytes.Buffer
		if err := encodeState(&state); err != nil {
			return nil, fmt.Errorf("controller: encode strategy state: %w", err)
		}
		snap.Strategy = state.Bytes()
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(&snap); err != nil {
			return nil, fmt.Errorf("controller: encode snapshot: %w", err)
		}
		return payload.Bytes(), nil
	}
	return s.appliedLSN.Load(), encode, nil
}

// Snapshot forces a durable snapshot now and truncates the WAL prefix it
// covers. Returns the covered LSN and the snapshot size in bytes. walMu is
// held only to copy the state; the encode and the write run after, and a
// crash before the write completes leaves the previous snapshot and the
// whole log.
func (s *Server) Snapshot() (uint64, int64, error) {
	if s.wlog == nil {
		return 0, 0, fmt.Errorf("controller: durability not enabled")
	}
	// Everything the snapshot covers must be on disk before the covering
	// prefix becomes eligible for truncation.
	if err := s.wlog.Sync(); err != nil {
		return 0, 0, err
	}
	s.walMu.Lock()
	lsn, encode, err := s.captureSnapshotLocked()
	s.sinceSnapshot = 0
	s.walMu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	payload, err := encode()
	if err != nil {
		return 0, 0, err
	}
	if _, err := wal.WriteSnapshot(snapDir(s.cfg.WALDir), lsn, payload); err != nil {
		return 0, 0, err
	}
	s.mSnapshotBytes.Set(float64(len(payload)))
	if err := s.wlog.TruncateBefore(lsn + 1); err != nil {
		return 0, 0, err
	}
	return lsn, int64(len(payload)), nil
}

// maybeSnapshotLocked kicks off a background snapshot once enough records
// have been applied since the last one. Caller holds s.walMu; the actual
// capture re-acquires it from the goroutine, so the triggering request
// doesn't pay the capture cost.
func (s *Server) maybeSnapshotLocked() {
	s.sinceSnapshot++
	if s.cfg.SnapshotEvery <= 0 || s.sinceSnapshot < s.cfg.SnapshotEvery {
		return
	}
	if !s.snapshotting.CompareAndSwap(false, true) {
		return // one at a time
	}
	s.sinceSnapshot = 0
	go func() {
		defer s.snapshotting.Store(false)
		//vialint:ignore errwrap background snapshot failure must not crash serving; the next trigger retries and the error surfaces in the snapshot-age metric staying flat
		_, _, _ = s.Snapshot()
	}()
}

// waitSnapshots lets Close wait for an in-flight background snapshot.
func (s *Server) waitSnapshots(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for s.snapshotting.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}
