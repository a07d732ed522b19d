package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"testing"
	"time"
)

// totalAlloc returns the bytes fn allocated on the heap.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOpenReadsThroughWindow: recovering an 8 MiB tail segment holds one
// read window, not the segment — and finds the same records.
func TestOpenReadsThroughWindow(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SyncInterval: time.Hour, SegmentBytes: 64 << 20}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Type: 1, Data: bytes.Repeat([]byte("w"), 1000)}
	for size := int64(0); size < 8<<20; size += int64(len(EncodeFrame(nil, rec))) {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	last := l.LastLSN()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := segmentFiles(t, dir); n != 1 {
		t.Fatalf("%d segments; the test needs one 8 MiB tail segment", n)
	}

	var l2 *Log
	alloc := totalAlloc(func() { l2, err = Open(dir, opt) })
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close() //vialint:ignore errwrap test cleanup
	if alloc >= 1<<20 {
		t.Fatalf("Open of an 8 MiB segment allocated %d bytes, want < 1 MiB", alloc)
	}
	if got := l2.LastLSN(); got != last {
		t.Fatalf("reopened LastLSN = %d, want %d", got, last)
	}
	if lsn := mustAppend(t, l2, 1, "after"); lsn != last+1 {
		t.Fatalf("next LSN after reopen = %d, want %d", lsn, last+1)
	}
}

// TestOpenTruncatesOverlongLengthPrefix: a final length prefix claiming
// more than the file holds is a torn tail, cut away without allocating
// what it claims.
func TestOpenTruncatesOverlongLengthPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	appendThrough(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segmentPath(dir, 1)
	intact, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := binary.BigEndian.AppendUint32(bytes.Clone(intact), 15<<20)
	torn = append(torn, bytes.Repeat([]byte{0xA5}, 100)...)
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	var l2 *Log
	alloc := totalAlloc(func() { l2, err = Open(dir, testOptions()) })
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close() //vialint:ignore errwrap test cleanup
	if alloc >= 1<<20 {
		t.Fatalf("Open allocated %d bytes for a 15 MiB length claim, want < 1 MiB", alloc)
	}
	if got := l2.LastLSN(); got != 3 {
		t.Fatalf("LastLSN = %d, want 3", got)
	}
	if st, err := os.Stat(seg); err != nil || st.Size() != int64(len(intact)) {
		t.Fatalf("segment not truncated to its %d intact bytes (stat %v, err %v)", len(intact), st, err)
	}
}

func segmentFiles(t *testing.T, dir string) int {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}
