package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// testOptions syncs on every append so tests never race the committer.
func testOptions() Options {
	return Options{SyncInterval: -1}
}

func mustAppend(t *testing.T, l *Log, typ Type, data string) uint64 {
	t.Helper()
	lsn, err := l.Append(Record{Type: typ, Data: []byte(data)})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return lsn
}

func collect(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var out []Record
	err := l.Replay(from, func(lsn uint64, rec Record) error {
		out = append(out, Record{Type: rec.Type, Data: append([]byte(nil), rec.Data...)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	recs := []Record{
		{Type: 1, Data: nil},
		{Type: 2, Data: []byte("x")},
		{Type: 255, Data: bytes.Repeat([]byte("abc"), 1000)},
	}
	var buf []byte
	for _, r := range recs {
		buf = EncodeFrame(buf, r)
	}
	for i, want := range recs {
		got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("record %d mismatch", i)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	frame := EncodeFrame(nil, Record{Type: 7, Data: []byte("hello world")})

	// Every strict prefix is a truncation, never corruption or a panic.
	for n := 0; n < len(frame); n++ {
		if _, _, err := DecodeFrame(frame[:n]); err != ErrTruncated {
			t.Fatalf("prefix %d: got %v, want ErrTruncated", n, err)
		}
	}
	// Any single bit flip is detected.
	for i := 0; i < len(frame)*8; i++ {
		mut := append([]byte(nil), frame...)
		mut[i/8] ^= 1 << (i % 8)
		_, _, err := DecodeFrame(mut)
		if err == nil {
			t.Fatalf("bit flip %d went undetected", i)
		}
	}
}

func TestAppendReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		lsn := mustAppend(t, l, 1, fmt.Sprintf("rec-%d", i))
		if lsn != uint64(i+1) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
	}
	if got := l.DurableLSN(); got != 10 {
		t.Fatalf("durable = %d, want 10", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close() //vialint:ignore errwrap test cleanup
	if got := l2.LastLSN(); got != 10 {
		t.Fatalf("reopened last LSN = %d, want 10", got)
	}
	recs := collect(t, l2, 1)
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("rec-%d", i); string(r.Data) != want {
			t.Fatalf("record %d = %q, want %q", i, r.Data, want)
		}
	}
	// Mid-stream replay.
	if recs := collect(t, l2, 7); len(recs) != 4 || string(recs[0].Data) != "rec-6" {
		t.Fatalf("partial replay wrong: %d records", len(recs))
	}
	// Appends continue the sequence.
	if lsn := mustAppend(t, l2, 1, "rec-10"); lsn != 11 {
		t.Fatalf("post-reopen append LSN = %d, want 11", lsn)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, "keep-1")
	mustAppend(t, l, 1, "keep-2")
	mustAppend(t, l, 1, "torn")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop bytes off the last record to simulate a crash mid-write.
	seg := segmentPath(dir, 1)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, buf[:len(buf)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close() //vialint:ignore errwrap test cleanup
	if got := l2.LastLSN(); got != 2 {
		t.Fatalf("last LSN after torn tail = %d, want 2", got)
	}
	recs := collect(t, l2, 1)
	if len(recs) != 2 || string(recs[1].Data) != "keep-2" {
		t.Fatalf("surviving records wrong: %d", len(recs))
	}
	// The slot freed by the torn record is reused.
	if lsn := mustAppend(t, l2, 1, "replacement"); lsn != 3 {
		t.Fatalf("replacement LSN = %d, want 3", lsn)
	}
}

func TestCorruptMiddleSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions()
	opt.SegmentBytes = 64 // force rotation quickly
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustAppend(t, l, 1, fmt.Sprintf("record-%02d-padding-padding", i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	// Flip a bit in the FIRST segment — lost data, not a torn tail.
	buf, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(segs[0].path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOptions()); err == nil {
		t.Fatal("open accepted a corrupt middle segment")
	}
}

func TestSegmentRotationAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions()
	opt.SegmentBytes = 128
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //vialint:ignore errwrap test cleanup
	for i := 0; i < 40; i++ {
		mustAppend(t, l, 2, fmt.Sprintf("rotating-record-%02d-xxxxxxxx", i))
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("want ≥4 segments, got %d", len(segs))
	}

	// Truncate everything a snapshot at LSN 25 makes redundant.
	if err := l.TruncateBefore(25); err != nil {
		t.Fatal(err)
	}
	first := l.FirstLSN()
	if first > 25 {
		t.Fatalf("truncation removed needed records: first=%d", first)
	}
	if first == 1 {
		t.Fatal("truncation removed nothing")
	}
	// Replay from before the retained range must refuse.
	if err := l.Replay(1, func(uint64, Record) error { return nil }); err == nil {
		t.Fatal("replay across truncated range succeeded")
	}
	// Replay of the retained range still works and is complete.
	var lsns []uint64
	err = l.Replay(first, func(lsn uint64, rec Record) error {
		lsns = append(lsns, lsn)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lsns) == 0 || lsns[0] != first || lsns[len(lsns)-1] != 40 {
		t.Fatalf("retained replay range [%d..%d]", lsns[0], lsns[len(lsns)-1])
	}
}

func TestReset(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //vialint:ignore errwrap test cleanup
	mustAppend(t, l, 1, "old-1")
	mustAppend(t, l, 1, "old-2")
	if err := l.Reset(101); err != nil {
		t.Fatal(err)
	}
	if got := l.LastLSN(); got != 100 {
		t.Fatalf("last after reset = %d, want 100", got)
	}
	if lsn := mustAppend(t, l, 1, "new"); lsn != 101 {
		t.Fatalf("post-reset append LSN = %d, want 101", lsn)
	}
	recs := collect(t, l, 101)
	if len(recs) != 1 || string(recs[0].Data) != "new" {
		t.Fatalf("post-reset replay wrong")
	}
	if err := l.Reset(0); err == nil {
		t.Fatal("Reset(0) accepted")
	}
}

func TestGroupCommitDurability(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncInterval: 50 * 1e6 /* 50ms */})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //vialint:ignore errwrap test cleanup
	notify := l.DurableNotify()
	lsn := mustAppend(t, l, 1, "pending")
	// Not durable yet (committer hasn't ticked) — unless it raced us, which
	// is fine; we only assert it BECOMES durable.
	<-notify
	if got := l.DurableLSN(); got < lsn {
		t.Fatalf("durable = %d after notify, want ≥ %d", got, lsn)
	}
}

func TestWALMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	opt := testOptions()
	opt.Metrics = reg
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //vialint:ignore errwrap test cleanup
	mustAppend(t, l, 1, "a")
	mustAppend(t, l, 1, "b")
	snap := reg.Snapshot()
	if snap["via_wal_appends_total"] != 2 {
		t.Fatalf("appends counter = %v, want 2", snap["via_wal_appends_total"])
	}
	if snap["via_wal_fsync_seconds_count"] < 2 {
		t.Fatalf("fsync histogram count = %v, want ≥2", snap["via_wal_fsync_seconds_count"])
	}
}

func TestSnapshotRoundTripAndPrune(t *testing.T) {
	dir := t.TempDir()
	payloads := [][]byte{[]byte("state-a"), []byte("state-b"), []byte("state-c")}
	for i, p := range payloads {
		if _, err := WriteSnapshot(dir, uint64(10*(i+1)), p); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("prune kept %d snapshots, want 2", len(snaps))
	}
	lsn, payload, ok, err := LatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("latest: ok=%v err=%v", ok, err)
	}
	if lsn != 30 || !bytes.Equal(payload, []byte("state-c")) {
		t.Fatalf("latest = (%d, %q)", lsn, payload)
	}
	// No leftover temp files.
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

func TestLatestSnapshotSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, 10, []byte("good")); err != nil {
		t.Fatal(err)
	}
	path, err := WriteSnapshot(dir, 20, []byte("will-corrupt"))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	lsn, payload, ok, err := LatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("latest: ok=%v err=%v", ok, err)
	}
	if lsn != 10 || string(payload) != "good" {
		t.Fatalf("fell back to (%d, %q), want (10, good)", lsn, payload)
	}
}

func TestLatestSnapshotEmptyDir(t *testing.T) {
	_, _, ok, err := LatestSnapshot(filepath.Join(t.TempDir(), "nonexistent"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("ok for missing dir")
	}
}

func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncInterval: 1e6 /* 1ms */})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 50
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				if _, err := l.Append(Record{Type: 1, Data: []byte(fmt.Sprintf("w%d-%d", w, i))}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got != writers*per {
		t.Fatalf("durable = %d, want %d", got, writers*per)
	}
	recs := collect(t, l, 1)
	if len(recs) != writers*per {
		t.Fatalf("replayed %d, want %d", len(recs), writers*per)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// diskGate is a syncFile seam whose fsync a test can stall: after hold,
// the next fsync announces itself and waits for release.
type diskGate struct {
	held    atomic.Bool
	entered chan struct{}
	free    chan struct{}
}

func newDiskGate() *diskGate {
	return &diskGate{entered: make(chan struct{}), free: make(chan struct{})}
}

func (g *diskGate) hold()    { g.held.Store(true) }
func (g *diskGate) wait()    { <-g.entered }
func (g *diskGate) release() { g.free <- struct{}{} }

func (g *diskGate) sync(f *os.File) error {
	if g.held.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.free
	}
	return f.Sync()
}

// stallSync starts a Sync and returns once it has written its bytes and
// is held in fsync; the channel yields Sync's result after release.
func (g *diskGate) stallSync(l *Log) <-chan error {
	g.hold()
	done := make(chan error, 1)
	go func() { done <- l.Sync() }()
	g.wait()
	return done
}

// TestAppendDoesNotWaitForFsync: while the committer's fsync is stalled,
// Append still returns and numbers records, but neither DurableLSN nor a
// Tailer moves until the fsync completes.
func TestAppendDoesNotWaitForFsync(t *testing.T) {
	gate := newDiskGate()
	l, err := open(t.TempDir(), Options{SyncInterval: time.Millisecond}, gate.sync)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //vialint:ignore errwrap test cleanup
	gate.hold()
	mustAppend(t, l, 1, "first")
	gate.wait() // the committer swapped LSN 1 out and is in fsync

	const more = 200
	appended := make(chan error, 1)
	go func() {
		for i := 0; i < more; i++ {
			if _, err := l.Append(Record{Type: 1, Data: []byte("during fsync")}); err != nil {
				appended <- err
				return
			}
		}
		appended <- nil
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Append blocked behind a stalled fsync")
	}
	if got := l.LastLSN(); got != 1+more {
		t.Fatalf("LastLSN = %d, want %d", got, 1+more)
	}
	if got := l.DurableLSN(); got != 0 {
		t.Fatalf("DurableLSN = %d while the fsync is stalled, want 0", got)
	}
	tl := mustTail(t, l, 1)
	if got, err := drain(tl); err != nil || len(got) != 0 {
		t.Fatalf("tailer delivered %d records before the fsync completed, err %v", len(got), err)
	}

	notify := l.DurableNotify()
	gate.release()
	<-notify
	if got := l.DurableLSN(); got < 1 {
		t.Fatalf("DurableLSN = %d after the fsync completed", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got != 1+more {
		t.Fatalf("DurableLSN = %d after Sync, want %d", got, 1+more)
	}
	if got, err := drain(tl); err != nil || len(got) != 1+more {
		t.Fatalf("tailer delivered %d records after Sync, want %d (err %v)", len(got), 1+more, err)
	}
}

// TestSyncFailureIsSticky: once an fsync fails, the pages it covered may
// be gone even though a retry would succeed, so the log never reports them
// durable and every later Append, Sync and Close returns the failure.
func TestSyncFailureIsSticky(t *testing.T) {
	eio := errors.New("injected EIO")
	var failNext atomic.Bool
	failOnce := func(f *os.File) error {
		if failNext.Swap(false) {
			return eio
		}
		return f.Sync()
	}
	l, err := open(t.TempDir(), neverSync(), failOnce)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, "durable")
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, "lost")
	failNext.Store(true)
	if err := l.Sync(); !errors.Is(err, eio) {
		t.Fatalf("Sync err %v, want the injected failure", err)
	}
	// The seam would succeed now; the log must not let it.
	if err := l.Sync(); !errors.Is(err, eio) {
		t.Fatalf("second Sync err %v, want the first failure again", err)
	}
	if _, err := l.Append(Record{Type: 1, Data: []byte("after")}); !errors.Is(err, eio) {
		t.Fatalf("Append err %v, want the sync failure", err)
	}
	if got := l.DurableLSN(); got != 1 {
		t.Fatalf("DurableLSN = %d, want 1: the failed sync's record is not durable", got)
	}
	if err := l.Close(); !errors.Is(err, eio) {
		t.Fatalf("Close err %v, want the sync failure", err)
	}
}

// TestPendingBoundSyncsInline: with no committer tick in sight, an Append
// that finds maxPending bytes unsynced writes and fsyncs them itself.
func TestPendingBoundSyncsInline(t *testing.T) {
	l, err := Open(t.TempDir(), neverSync())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //vialint:ignore errwrap test cleanup
	rec := Record{Type: 1, Data: bytes.Repeat([]byte("p"), 1000)}
	frame := uint64(len(EncodeFrame(nil, rec)))
	perBound := (maxPending + frame - 1) / frame // appends that fill the bound
	for i := uint64(0); i <= perBound; i++ {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.DurableLSN(); got != perBound {
		t.Fatalf("DurableLSN = %d, want %d: the append past the bound must sync what was pending", got, perBound)
	}
	l.mu.Lock()
	pending := len(l.pending)
	l.mu.Unlock()
	if pending != int(frame) {
		t.Fatalf("%d bytes pending after the inline sync, want one frame (%d)", pending, frame)
	}
}

// TestAppendDoesNotAllocate: in steady state Append encodes into the
// log's own buffers, which syncs hand back and forth.
func TestAppendDoesNotAllocate(t *testing.T) {
	l, err := Open(t.TempDir(), neverSync())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //vialint:ignore errwrap test cleanup
	rec := Record{Type: 1, Data: bytes.Repeat([]byte("r"), 200)}
	const runs = 400
	for round := 0; round < 2; round++ { // grow both buffers
		for i := 0; i <= runs; i++ {
			if _, err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Append allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkAppendPaced is one appender at a fixed rate (one 200-byte
// record every 20µs) while the committer syncs every 2ms, as a served
// controller appends. blocked_frac is the share of wall time spent inside
// Append; a committer that held the append lock across fsync shows up
// there and in the tail.
func BenchmarkAppendPaced(b *testing.B) {
	l, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close() //vialint:ignore errwrap benchmark cleanup
	rec := Record{Type: 1, Data: bytes.Repeat([]byte("r"), 200)}
	const pace = 20 * time.Microsecond
	lat := make([]time.Duration, b.N)
	var blocked time.Duration
	b.ResetTimer()
	start := time.Now()
	next := start
	for i := 0; i < b.N; i++ {
		for time.Now().Before(next) {
		}
		next = next.Add(pace)
		t0 := time.Now()
		if _, err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(t0)
		blocked += lat[i]
	}
	wall := time.Since(start)
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(blocked.Seconds()/wall.Seconds(), "blocked_frac")
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99_ns")
	b.ReportMetric(float64(lat[len(lat)*999/1000].Nanoseconds()), "p99.9_ns")
}
