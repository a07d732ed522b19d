package controller

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// standbyRunner tails the primary's WAL stream, replicating every record
// into the local WAL and applying it to the local strategy, so the standby
// is warm: promotion is a role flip, not a rebuild. The lease is implicit
// in the stream — records and heartbeats both refresh lastContact, and
// when the primary goes silent past LeaseTimeout the standby (with
// AutoPromote) takes over.
//
// The stream connection is deliberately re-established every lease window
// rather than held forever: the bounded window doubles as the watchdog for
// a primary that freezes without closing its sockets, and keeps every
// network wait under an explicit deadline.
type standbyRunner struct {
	s       *Server
	primary string

	// stream is bounded per-window; bootstrap allows a longer transfer for
	// large snapshots. Both carry hard timeouts so a wedged primary can
	// never hang the tailer past its lease math.
	stream    *http.Client
	bootstrap *http.Client

	lastContact atomic.Int64 // unix nanos of the last byte from the primary

	// The stream's read window and frame buffer, reused across records
	// and lease windows. Only the run goroutine touches them.
	br    *bufio.Reader
	frame []byte

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func newStandbyRunner(s *Server, primary string) *standbyRunner {
	window := s.cfg.LeaseTimeout
	r := &standbyRunner{
		s:         s,
		primary:   primary,
		stream:    &http.Client{Timeout: window},
		bootstrap: &http.Client{Timeout: max(window, 30*time.Second)},
		br:        bufio.NewReaderSize(nil, 1<<16),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	r.touch()
	return r
}

func (r *standbyRunner) requestStop() {
	r.stopOnce.Do(func() { close(r.stop) })
}

func (r *standbyRunner) touch() {
	r.lastContact.Store(time.Now().UnixNano())
}

func (r *standbyRunner) silence() time.Duration {
	return time.Duration(time.Now().UnixNano() - r.lastContact.Load())
}

func (r *standbyRunner) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// run is the tailer loop. It exits on requestStop or by promoting itself
// after a lease lapse. done is closed before self-promotion so an external
// Promote waiting on it can never deadlock against us.
func (r *standbyRunner) run() {
	promoted := false
	for !r.stopped() {
		// Errors here are routine (primary restarting, connection reset);
		// the loop's job is to keep reconnecting until the lease verdict.
		//vialint:ignore errwrap stream errors are retried; the lease lapse below is the real failure signal
		_ = r.streamOnce()
		if r.stopped() {
			break
		}
		if r.s.cfg.AutoPromote && r.silence() > r.s.cfg.LeaseTimeout {
			promoted = true
			break
		}
		// Brief pause so a dead primary (instant connection-refused) does
		// not spin the loop hot.
		select {
		case <-r.stop:
		case <-time.After(50 * time.Millisecond):
		}
	}
	close(r.done)
	if promoted {
		//vialint:ignore errwrap a failed self-promotion leaves the server in standby; operators see it in /v1/readyz and can promote manually
		_, _ = r.s.promote(true)
	}
}

// streamOnce opens the replication stream for one lease window and ingests
// items until the window closes or the connection drops.
func (r *standbyRunner) streamOnce() error {
	from := r.s.appliedLSN.Load() + 1
	ctx, cancel := context.WithTimeout(context.Background(), r.s.cfg.LeaseTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/wal/stream?from=%d", r.primary, from), nil)
	if err != nil {
		return err
	}
	resp, err := r.stream.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //vialint:ignore errwrap read-only stream body; the read errors are what matter
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// Our cursor pre-dates the primary's retained log: reset from a
		// snapshot, then the next window streams from the new cursor.
		r.touch()
		return r.bootstrapFromSnapshot()
	default:
		return fmt.Errorf("controller: wal stream returned %s", resp.Status)
	}

	r.br.Reset(resp.Body)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
			return err // window closed or connection dropped
		}
		r.touch()
		lsn := binary.BigEndian.Uint64(hdr[:])
		if lsn == 0 {
			continue // heartbeat
		}
		var rec wal.Record
		rec, r.frame, err = wal.ReadFrameBuf(r.br, r.frame)
		if err != nil {
			return err
		}
		if err := r.s.ingestReplicated(lsn, rec); err != nil {
			// Sequence gap or local divergence: resync from a snapshot.
			return r.bootstrapFromSnapshot()
		}
	}
}

// bootstrapFromSnapshot installs a fresh snapshot from the primary:
// strategy state, term, virtual clock, and a reset local WAL whose next
// LSN continues the primary's numbering.
func (r *standbyRunner) bootstrapFromSnapshot() error {
	ctx, cancel := context.WithTimeout(context.Background(), r.bootstrap.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.primary+"/v1/wal/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := r.bootstrap.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //vialint:ignore errwrap read-only body; the read errors are what matter
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("controller: snapshot bootstrap returned %s", resp.Status)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(resp.Body, hdr[:]); err != nil {
		return fmt.Errorf("controller: snapshot bootstrap header: %w", err)
	}
	lsn := binary.BigEndian.Uint64(hdr[:])
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("controller: snapshot bootstrap body: %w", err)
	}
	r.touch()
	return r.s.installSnapshot(lsn, payload)
}

// installSnapshot replaces the server's state with a primary-sent snapshot
// covering lsn.
func (s *Server) installSnapshot(lsn uint64, payload []byte) error {
	snap, err := decodeSnapshot(payload)
	if err != nil {
		return err
	}
	s.walMu.Lock()
	lsnLocal, encode, err := s.resetToSnapshotLocked(lsn, snap)
	s.walMu.Unlock()
	if err != nil {
		return err
	}
	// Persist the installed state locally too: a standby that crashes
	// right now must not come back empty.
	data, err := encode()
	if err != nil {
		return err
	}
	if _, err := wal.WriteSnapshot(snapDir(s.cfg.WALDir), lsnLocal, data); err != nil {
		return err
	}
	s.mSnapshotBytes.Set(float64(len(data)))
	return nil
}

// resetToSnapshotLocked loads a primary's snapshot covering lsn, restarts
// the local log after it, and captures the installed state for the local
// snapshot. Caller holds s.walMu.
func (s *Server) resetToSnapshotLocked(lsn uint64, snap *ctrlSnapshot) (uint64, func() ([]byte, error), error) {
	if err := s.restoreSnapshotLocked(lsn, snap); err != nil {
		return 0, nil, err
	}
	// The local log's history is superseded; restart numbering in lockstep
	// with the primary so future replicated records land at matching LSNs.
	if err := s.wlog.Reset(lsn + 1); err != nil {
		return 0, nil, err
	}
	s.sinceSnapshot = 0
	return s.captureSnapshotLocked()
}

// ingestReplicated appends one streamed record to the local WAL and
// applies it, keeping local LSNs aligned with the primary's.
func (s *Server) ingestReplicated(lsn uint64, rec wal.Record) error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if expect := s.appliedLSN.Load() + 1; lsn != expect {
		return fmt.Errorf("controller: replication gap: got LSN %d, want %d", lsn, expect)
	}
	local, err := s.wlog.Append(rec)
	if err != nil {
		return err
	}
	if local != lsn {
		return fmt.Errorf("controller: local WAL at LSN %d, primary at %d", local, lsn)
	}
	if err := s.applyRecordLocked(rec); err != nil {
		return err
	}
	s.appliedLSN.Store(lsn)
	s.maybeSnapshotLocked()
	return nil
}
