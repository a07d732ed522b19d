package controller

// Shard-fleet support. internal/ring partitions canonical (src, dst) pairs
// across a consistent-hash ring of controller shards; each shard is an
// unmodified Server (WAL + warm standby + admission). This file is the
// controller-side surface that makes the ring work:
//
//   - GET  /v1/budget/digest — this shard's §4.6 benefit-percentile digest
//   - POST /v1/budget/merged — install the router's fleet-merged threshold,
//     WAL-first so replay reproduces the same gate decisions
//   - ExportRecords / ImportRecords — rebalancing: when the ring epoch
//     advances and a pair moves shards, only that pair's WAL records are
//     replayed into the new owner
//
// The ring's routing layer itself (map, gate, router) lives in
// internal/ring; it imports this package, never the reverse.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wal"
)

// handleBudgetDigest serves this shard's §4.6 benefit-percentile digest
// for cross-shard aggregation. 404 when the strategy is not the full Via
// algorithm — there is nothing to aggregate.
func (s *Server) handleBudgetDigest(w http.ResponseWriter, _ *http.Request) {
	via, ok := s.cfg.Strategy.(*core.Via)
	if !ok {
		http.Error(w, "strategy does not expose a budget digest", http.StatusNotFound)
		return
	}
	n, th, ok := via.BudgetDigest()
	resp := transport.BudgetDigestResponse{OK: ok, N: n, Threshold: th}
	if st, ok := via.BudgetSketch(); ok && st.N >= 5 {
		resp.P, resp.Q, resp.Pos = st.P, st.Q, st.Pos
	}
	reply(w, resp)
}

// handleBudgetMerged installs the fleet-merged §4.6 threshold pushed by
// the ring router.
func (s *Server) handleBudgetMerged(w http.ResponseWriter, r *http.Request) {
	if !s.requireReady(w) {
		return
	}
	req, ok := decode[transport.BudgetMergedRequest](w, r)
	if !ok {
		return
	}
	if err := s.applyBudget(req.N, req.Threshold); err != nil {
		http.Error(w, "durability failure: "+err.Error(), http.StatusInternalServerError)
		return
	}
	reply(w, transport.BudgetMergedResponse{OK: true})
}

// applyBudget installs a merged budget threshold, WAL-first like every
// other state-bearing request: the record is appended under walMu before
// the strategy sees the new gate, so log order remains apply order and
// replayed gate decisions match live ones.
func (s *Server) applyBudget(n int64, threshold float64) error {
	via, ok := s.cfg.Strategy.(*core.Via)
	if !ok {
		return fmt.Errorf("controller: strategy %q has no budget gate", s.cfg.Strategy.Name())
	}
	if s.wlog == nil {
		via.SetSharedBudgetThreshold(n, threshold)
		return nil
	}
	data, err := json.Marshal(walBudget{N: n, Threshold: threshold})
	if err != nil {
		return fmt.Errorf("controller: marshal wal record: %w", err)
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if _, err := s.appendRecordLocked(recBudget, data); err != nil {
		return err
	}
	via.SetSharedBudgetThreshold(n, threshold)
	s.maybeSnapshotLocked()
	return nil
}

// RecordPair extracts the canonical pair a WAL record is scoped to. Term
// and budget records are shard-global (ok is false): they are never moved
// by a rebalance — the destination shard has its own leadership history
// and receives its own merged-threshold installs.
func RecordPair(rec wal.Record) (src, dst int32, ok bool) {
	switch rec.Type {
	case recChoose:
		var r walChoose
		if r.DecodeJSON(rec.Data) != nil {
			return 0, 0, false
		}
		return r.Src, r.Dst, true
	case recReport:
		var r walReport
		if r.DecodeJSON(rec.Data) != nil {
			return 0, 0, false
		}
		return r.Src, r.Dst, true
	}
	return 0, 0, false
}

// ExportRecords streams, in LSN order, every pair-scoped WAL record whose
// pair matches pred — the moved-pairs half of a ring rebalance. Emitted
// records are copies the caller may retain. It holds
// walMu for the duration, pausing this shard's applies; that is the
// rebalance quiesce, and it is safe because the new ring map is installed
// before the export, so traffic for the moved pairs is already being
// redirected to the destination shard.
//
// Rebalancing requires the full log: ring shards run with automatic
// snapshots disabled (SnapshotEvery < 0) so no prefix is truncated.
func (s *Server) ExportRecords(pred func(src, dst int32) bool, emit func(wal.Record) error) error {
	if s.wlog == nil {
		return fmt.Errorf("controller: durability not enabled")
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if first := s.wlog.FirstLSN(); first > 1 {
		return fmt.Errorf("controller: wal prefix truncated at lsn %d; ring shards must run with snapshots disabled to stay rebalanceable", first)
	}
	return s.wlog.Replay(1, func(_ uint64, rec wal.Record) error {
		if src, dst, ok := RecordPair(rec); ok && pred(src, dst) {
			// Replay lends rec.Data for the call only; emitted records are
			// the caller's to keep.
			return emit(wal.Record{Type: rec.Type, Data: bytes.Clone(rec.Data)})
		}
		return nil
	})
}

// ImportRecords appends and applies records exported from another shard,
// under the same walMu discipline as live traffic: each record is logged
// then re-executed, so the destination shard's own WAL replays
// bit-identically afterwards. Imports interleave with live requests in
// whatever order the lock grants — both orders are logged, so determinism
// of replay is unaffected.
func (s *Server) ImportRecords(recs []wal.Record) error {
	if s.wlog == nil {
		return fmt.Errorf("controller: durability not enabled")
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	for _, rec := range recs {
		lsn, err := s.wlog.Append(rec)
		if err != nil {
			return err
		}
		if err := s.applyRecordLocked(rec); err != nil {
			return err
		}
		s.appliedLSN.Store(lsn)
	}
	return s.wlog.Sync()
}

// StrategyState captures the strategy's full serialized state under the
// WAL mutex — a point-in-time cut aligned with the log, so it can be
// compared byte-for-byte against a replay of the same WAL. Available on
// in-memory servers too (the cut is then merely point-in-time).
func (s *Server) StrategyState() ([]byte, error) {
	stateful, ok := s.cfg.Strategy.(StatefulStrategy)
	if !ok {
		return nil, fmt.Errorf("controller: strategy %q does not support state capture", s.cfg.Strategy.Name())
	}
	if s.wlog != nil {
		s.walMu.Lock()
		defer s.walMu.Unlock()
	}
	var buf bytes.Buffer
	if err := stateful.SaveState(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
