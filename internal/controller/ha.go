package controller

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/transport"
)

// HA endpoints: the lease view, the WAL replication stream a standby
// tails, the snapshot bootstrap for a standby too far behind, and
// promotion.
//
// Stream wire format (GET /v1/wal/stream?from=LSN, chunked octet-stream):
//
//	item      = [8B big-endian LSN][wal frame]
//	heartbeat = [8B zero]
//
// Only durable (fsynced) records are streamed, so a standby can never
// apply a record the primary could still lose in a crash. When the
// requested LSN pre-dates the log's retained range (truncated behind a
// snapshot), the stream answers 410 Gone and the standby bootstraps from
// GET /v1/wal/snapshot instead:
//
//	response = [8B big-endian covered LSN][ctrlSnapshot gob]

// handleLease reports the leadership lease and WAL positions.
func (s *Server) handleLease(w http.ResponseWriter, _ *http.Request) {
	resp := transport.LeaseResponse{
		Term:  s.term.Load(),
		Role:  s.Role(),
		State: s.State(),
	}
	if s.wlog != nil {
		resp.FirstLSN = s.wlog.FirstLSN()
		resp.LastLSN = s.wlog.LastLSN()
		resp.DurableLSN = s.wlog.DurableLSN()
	}
	reply(w, resp)
}

// handleWALStream serves the replication stream.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	if s.wlog == nil {
		http.Error(w, "durability not enabled", http.StatusNotFound)
		return
	}
	from := uint64(1)
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil || v == 0 {
			http.Error(w, "from must be a positive LSN", http.StatusBadRequest)
			return
		}
		from = v
	}
	tail, err := s.wlog.Tail(from)
	if err != nil {
		http.Error(w, "requested LSN truncated away; bootstrap from /v1/wal/snapshot", http.StatusGone)
		return
	}
	defer tail.Close()
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// The tail is a cursor: a wake-up reads only the records that became
	// durable since the last one and forwards their frames verbatim — the
	// CRC the standby checks is the one the log wrote.
	sent := from - 1
	var hdr [8]byte
	emit := func(lsn uint64, frame []byte) error {
		binary.BigEndian.PutUint64(hdr[:], lsn)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(frame); err != nil {
			return err
		}
		sent = lsn
		return nil
	}
	// One heartbeat timer, re-armed at every wake-up.
	var zero [8]byte
	hb := time.NewTimer(s.cfg.HeartbeatInterval)
	defer hb.Stop()
	for {
		// Snapshot the notify channel BEFORE reading durable: records that
		// land between the read and the wait then still close this channel.
		notify := s.wlog.DurableNotify()
		if durable := s.wlog.DurableLSN(); durable > sent {
			s.mStreamLag.Set(float64(durable - sent))
			if err := tail.Next(emit); err != nil {
				// Subscriber hung up, or the tail lost its place (log reset
				// or truncated under it): the standby reconnects and, past
				// the retained range, bootstraps from a snapshot.
				return
			}
			fl.Flush()
		} else {
			s.mStreamLag.Set(0)
		}
		select {
		case <-r.Context().Done():
			return
		case <-notify:
			if !hb.Stop() {
				select { // fired unread: drain it before re-arming
				case <-hb.C:
				default:
				}
			}
		case <-hb.C:
			if _, err := w.Write(zero[:]); err != nil {
				return
			}
			fl.Flush()
		}
		hb.Reset(s.cfg.HeartbeatInterval)
	}
}

// handleWALSnapshot serves a fresh, consistent snapshot for standby
// bootstrap. The WAL is synced first so the covered LSN is durable — a
// replica must never hold state the primary's own log could lose.
func (s *Server) handleWALSnapshot(w http.ResponseWriter, _ *http.Request) {
	if s.wlog == nil {
		http.Error(w, "durability not enabled", http.StatusNotFound)
		return
	}
	if err := s.wlog.Sync(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.walMu.Lock()
	lsn, encode, err := s.captureSnapshotLocked()
	s.walMu.Unlock()
	var payload []byte
	if err == nil {
		payload, err = encode()
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], lsn)
	if _, err := w.Write(hdr[:]); err != nil {
		return
	}
	//vialint:ignore errwrap a failed write means the standby hung up; it will retry the bootstrap
	_, _ = w.Write(payload)
}

// handleAdminSnapshot forces a durable snapshot (viactl snapshot).
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, _ *http.Request) {
	lsn, n, err := s.Snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	reply(w, transport.SnapshotResponse{OK: true, LSN: lsn, Bytes: n})
}

// handlePromote promotes a standby to primary (viactl promote). On a
// server that is already primary it is an acknowledged no-op.
func (s *Server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	term, err := s.Promote()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	reply(w, transport.PromoteResponse{OK: true, Term: term, Role: s.Role()})
}

// Promote turns a standby into the primary: the tailer is stopped, a fresh
// term is appended to the (now-local-authoritative) WAL, the virtual clock
// resumes from the newest replicated record, and the server starts
// answering decision traffic. Safe to call on a primary (no-op).
func (s *Server) Promote() (uint64, error) {
	return s.promote(false)
}

// promote implements Promote. fromRunner marks the self-promotion path
// (lease lapse): the runner has already exited its loop and closed done,
// so it must not be waited on — that would be waiting on ourselves.
func (s *Server) promote(fromRunner bool) (uint64, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.Role() == RolePrimary {
		return s.term.Load(), nil
	}
	if !fromRunner && s.standby != nil {
		s.standby.requestStop()
		<-s.standby.done
	}
	term := s.term.Load() + 1
	s.term.Store(term)
	if err := s.appendTerm(term); err != nil {
		return 0, fmt.Errorf("controller: promote: %w", err)
	}
	if s.wlog != nil {
		if err := s.wlog.Sync(); err != nil {
			return 0, fmt.Errorf("controller: promote: %w", err)
		}
	}
	// Resume algorithm time from the newest replicated record, exactly as
	// boot recovery does.
	s.walMu.Lock()
	last := s.lastTHours
	s.walMu.Unlock()
	s.clockMu.Lock()
	if last > s.baseHours {
		s.baseHours = last
		s.baseTime = s.clock()
	}
	s.clockMu.Unlock()

	s.roleVal.Store(RolePrimary)
	s.stateVal.Store(StateReady)
	s.mLeaseTransitions.Inc()
	return term, nil
}
