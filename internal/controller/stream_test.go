package controller

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/wal"
)

// smallSegments rotates the WAL every few records, so a short test crosses
// many segment boundaries.
const smallSegments = 1024

func walSegmentFiles(t *testing.T, dir string) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

func mustState(t *testing.T, s *Server) []byte {
	t.Helper()
	b, err := s.StrategyState()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOpenAfterRotationSnapshotTruncation: a durable controller whose log
// has rotated and been truncated behind a snapshot — every long-running
// `viactl serve -wal` — restarts, and snapshot + tail reproduce the live
// state byte for byte.
func TestOpenAfterRotationSnapshotTruncation(t *testing.T) {
	dir := t.TempDir()
	open := func() *Server {
		s, err := Open(Config{
			Strategy:        core.NewVia(ringViaConfig(7), nil),
			WALDir:          dir,
			WALSyncInterval: -1,
			WALSegmentBytes: smallSegments,
			SnapshotEvery:   -1,
			Clock:           newFakeClock().Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	drive(t, s, 10, 11, 40, 0)
	drive(t, s, 20, 21, 20, 4)
	if _, _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if first := s.wlog.FirstLSN(); first <= 1 {
		t.Fatalf("snapshot left FirstLSN=%d; the test is not exercising truncation", first)
	}
	drive(t, s, 10, 11, 15, 6) // the tail the snapshot does not cover, itself across rotations
	for round := 0; round < 2; round++ {
		want, lsn := mustState(t, s), s.AppliedLSN()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = open()
		// Booting as primary appends one term record on top of the recovery.
		if got := s.AppliedLSN(); got != lsn+1 {
			t.Fatalf("round %d: reopened at LSN %d, want %d", round, got, lsn+1)
		}
		if !bytes.Equal(mustState(t, s), want) {
			t.Fatalf("round %d: snapshot + tail did not reproduce the pre-restart state", round)
		}
		drive(t, s, 20, 21, 5, 8+float64(round))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALStreamWireBytes pins the replication stream's wire format: for a
// fixed log the handler emits, per record, [8B LSN] ‖ wal.EncodeFrame(rec)
// — so forwarding the log's own frames verbatim changes nothing for a
// standby built against the re-encoding handler. It also reads the lag
// gauge the first wake-up set.
func TestWALStreamWireBytes(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(Config{
		Strategy:          core.NewVia(ringViaConfig(3), nil),
		WALDir:            t.TempDir(),
		WALSyncInterval:   -1,
		WALSegmentBytes:   smallSegments,
		SnapshotEvery:     -1,
		HeartbeatInterval: time.Minute, // no heartbeat (and no second wake-up) inside the test
		Clock:             newFakeClock().Now,
		Metrics:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //vialint:ignore errwrap test teardown close
	drive(t, s, 10, 11, 12, 0)
	if n := walSegmentFiles(t, s.cfg.WALDir); n < 3 {
		t.Fatalf("log has %d segments; the stream must cross rotations", n)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, from := range []uint64{1, 9} {
		var want []byte
		records := 0
		err := s.wlog.Replay(from, func(lsn uint64, rec wal.Record) error {
			want = binary.BigEndian.AppendUint64(want, lsn)
			want = wal.EncodeFrame(want, rec)
			records++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if uint64(records) != s.AppliedLSN()-from+1 {
			t.Fatalf("replayed %d records from %d, log ends at %d", records, from, s.AppliedLSN())
		}
		got := readStream(t, ts.URL, from, len(want))
		if !bytes.Equal(got, want) {
			t.Fatalf("from=%d: stream bytes differ from [8B LSN] ‖ EncodeFrame(rec) per record", from)
		}
		if lag := reg.Snapshot()["via_controller_wal_stream_lag_records"]; lag != float64(records) {
			t.Fatalf("from=%d: lag gauge %v after the first wake-up, want %d", from, lag, records)
		}
	}
}

// readStream opens the replication stream at from and returns its first n
// bytes.
func readStream(t *testing.T, base string, from uint64, n int) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp := openStream(t, ctx, base, from)
	defer resp.Body.Close() //vialint:ignore errwrap test teardown close
	got := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, got); err != nil {
		t.Fatalf("stream ended early: %v", err)
	}
	return got
}

func openStream(t *testing.T, ctx context.Context, base string, from uint64) *http.Response {
	t.Helper()
	url := base + "/v1/wal/stream?from=" + strconv.FormatUint(from, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream from %d: %s", from, resp.Status)
	}
	return resp
}

// TestWALStreamEndsWhenLogIsReset: a Reset under an open stream (this
// server re-bootstrapped from a snapshot) must end the response, not leave
// the subscriber tailing a log that no longer exists.
func TestWALStreamEndsWhenLogIsReset(t *testing.T) {
	s, err := Open(Config{
		Strategy:          core.NewVia(ringViaConfig(3), nil),
		WALDir:            t.TempDir(),
		WALSyncInterval:   -1,
		SnapshotEvery:     -1,
		HeartbeatInterval: time.Minute,
		Clock:             newFakeClock().Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //vialint:ignore errwrap test teardown close
	drive(t, s, 10, 11, 3, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp := openStream(t, ctx, ts.URL, s.AppliedLSN())
	defer resp.Body.Close() //vialint:ignore errwrap test teardown close
	var hdr [8]byte
	if _, err := io.ReadFull(resp.Body, hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wal.ReadFrameBuf(resp.Body, nil); err != nil {
		t.Fatal(err)
	}
	// The stream is caught up and parked. Replace the log under it, then
	// make a record durable so the handler wakes.
	if err := s.wlog.Reset(s.AppliedLSN() + 1); err != nil {
		t.Fatal(err)
	}
	drive(t, s, 10, 11, 1, 1)
	rest, err := io.ReadAll(resp.Body)
	if err != nil || len(rest) != 0 {
		t.Fatalf("stream after reset: %d more bytes, err %v; want a clean end", len(rest), err)
	}
}

// TestStandbyFollowsPrimaryAcrossRotation: the catch-up scan and the live
// tail both cross segment boundaries, and the standby lands on the
// primary's LSN with byte-identical strategy state.
func TestStandbyFollowsPrimaryAcrossRotation(t *testing.T) {
	clk := newFakeClock()
	open := func(dir, standbyOf string) *Server {
		s, err := Open(Config{
			Strategy:          core.NewVia(core.DefaultViaConfig(quality.RTT), nil),
			TimeScale:         3600,
			WALDir:            dir,
			WALSyncInterval:   -1,
			WALSegmentBytes:   smallSegments,
			SnapshotEvery:     -1,
			StandbyOf:         standbyOf,
			LeaseTimeout:      400 * time.Millisecond,
			HeartbeatInterval: 50 * time.Millisecond,
			Clock:             clk.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pdir := t.TempDir()
	p := open(pdir, "")
	defer p.Close() //vialint:ignore errwrap test teardown close
	pts := httptest.NewServer(p.Handler())
	defer pts.Close()
	pc := NewClient(pts.URL)

	drive20(t, clk, pc)
	before := walSegmentFiles(t, pdir)
	if before < 3 {
		t.Fatalf("primary log has %d segments before the standby attaches; want a catch-up across rotations", before)
	}
	sb := open(t.TempDir(), pts.URL)
	defer sb.Close() //vialint:ignore errwrap test teardown close
	waitFor(t, 5*time.Second, "standby catch-up", func() bool {
		return sb.AppliedLSN() == p.AppliedLSN()
	})
	drive20(t, clk, pc)
	if after := walSegmentFiles(t, pdir); after <= before {
		t.Fatalf("primary log did not rotate under the live tail (%d → %d segments)", before, after)
	}
	waitFor(t, 5*time.Second, "standby live tail", func() bool {
		return sb.AppliedLSN() == p.AppliedLSN()
	})
	if !bytes.Equal(mustState(t, sb), mustState(t, p)) {
		t.Fatal("standby state differs from the primary's at the same LSN")
	}
}
