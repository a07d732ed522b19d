package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"
)

// neverSync leaves durability entirely to explicit Sync calls: the
// committer's first tick is an hour away, so a test decides exactly which
// records are durable.
func neverSync() Options {
	return Options{SyncInterval: time.Hour}
}

type delivered struct {
	lsn   uint64
	frame []byte
}

// drain runs one Next and returns what it delivered (frames copied).
func drain(t *Tailer) ([]delivered, error) {
	var out []delivered
	err := t.Next(func(lsn uint64, frame []byte) error {
		out = append(out, delivered{lsn, bytes.Clone(frame)})
		return nil
	})
	return out, err
}

// wantRun checks that got is exactly LSNs lo..hi, each frame being the
// wire framing of the record tailRec(lsn).
func wantRun(t *testing.T, got []delivered, lo, hi uint64) {
	t.Helper()
	if want := int(hi + 1 - lo); len(got) != want {
		t.Fatalf("delivered %d records, want %d (LSN %d..%d)", len(got), want, lo, hi)
	}
	for i, d := range got {
		lsn := lo + uint64(i)
		if d.lsn != lsn {
			t.Fatalf("record %d has LSN %d, want %d", i, d.lsn, lsn)
		}
		if want := EncodeFrame(nil, tailRec(lsn)); !bytes.Equal(d.frame, want) {
			t.Fatalf("LSN %d: frame differs from EncodeFrame of the appended record", lsn)
		}
	}
}

// tailRec is the record the tail tests append at a given LSN.
func tailRec(lsn uint64) Record {
	return Record{Type: Type(1 + lsn%3), Data: []byte(fmt.Sprintf("tail-record-%04d-padding", lsn))}
}

func appendThrough(t *testing.T, l *Log, hi uint64) {
	t.Helper()
	for l.LastLSN() < hi {
		if _, err := l.Append(tailRec(l.LastLSN() + 1)); err != nil {
			t.Fatal(err)
		}
	}
}

func segmentCount(l *Log) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

func mustTail(t *testing.T, l *Log, from uint64) *Tailer {
	t.Helper()
	tl, err := l.Tail(from)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tl.Close)
	return tl
}

// TestTailer walks the cursor through everything that can happen to the
// log under it. Every case decides durability by hand (sync-per-append or
// explicit Sync), so nothing depends on timing.
func TestTailer(t *testing.T) {
	gate := newDiskGate()
	cases := []struct {
		name string
		opt  Options
		gate *diskGate // nil: fsync is the file's own
		run  func(t *testing.T, l *Log, dir string)
	}{
		{
			name: "follows rotation into later segments",
			opt:  Options{SyncInterval: -1, SegmentBytes: 128},
			run: func(t *testing.T, l *Log, _ string) {
				tl := mustTail(t, l, 1)
				appendThrough(t, l, 3)
				got, err := drain(tl)
				if err != nil {
					t.Fatal(err)
				}
				wantRun(t, got, 1, 3)
				appendThrough(t, l, 40)
				if n := segmentCount(l); n < 4 {
					t.Fatalf("want ≥4 segments, got %d", n)
				}
				if got, err = drain(tl); err != nil {
					t.Fatal(err)
				}
				wantRun(t, got, 4, 40)
				// Caught up: nothing more, and no error.
				if got, err = drain(tl); err != nil || len(got) != 0 {
					t.Fatalf("idle Next delivered %d records, err %v", len(got), err)
				}
			},
		},
		{
			name: "opened mid-segment and mid-log",
			opt:  Options{SyncInterval: -1, SegmentBytes: 128},
			run: func(t *testing.T, l *Log, _ string) {
				appendThrough(t, l, 30)
				for _, from := range []uint64{2, 17, 30, 31} {
					got, err := drain(mustTail(t, l, from))
					if err != nil {
						t.Fatal(err)
					}
					wantRun(t, got, from, 30)
				}
			},
		},
		{
			name: "truncation of the held segment loses the tail",
			opt:  Options{SyncInterval: -1, SegmentBytes: 128},
			run: func(t *testing.T, l *Log, _ string) {
				tl := mustTail(t, l, 1)
				appendThrough(t, l, 2)
				if got, err := drain(tl); err != nil || len(got) != 2 {
					t.Fatalf("delivered %d, err %v", len(got), err)
				}
				// The tailer now holds segment 1 open at LSN 3; the log moves
				// on and a snapshot reclaims that segment.
				appendThrough(t, l, 40)
				if err := l.TruncateBefore(25); err != nil {
					t.Fatal(err)
				}
				if first := l.FirstLSN(); first <= 3 {
					t.Fatalf("FirstLSN %d: truncation did not pass the tailer", first)
				}
				got, err := drain(tl)
				if !errors.Is(err, ErrTailLost) || len(got) != 0 {
					t.Fatalf("Next after truncation: %d records, err %v; want ErrTailLost", len(got), err)
				}
				if _, err := l.Tail(3); err == nil {
					t.Fatal("Tail opened inside the truncated range")
				}
			},
		},
		{
			name: "truncation behind a finished segment is harmless",
			opt:  Options{SyncInterval: -1, SegmentBytes: 128},
			run: func(t *testing.T, l *Log, _ string) {
				tl := mustTail(t, l, 1)
				// Fill segment 1 to the point where the next append rotates,
				// and let the tailer finish it while it is still the active one.
				for full := false; !full; {
					appendThrough(t, l, l.LastLSN()+1)
					l.mu.Lock()
					full = l.active >= l.opt.SegmentBytes
					l.mu.Unlock()
				}
				last := l.LastLSN()
				got, err := drain(tl)
				if err != nil {
					t.Fatal(err)
				}
				wantRun(t, got, 1, last)
				appendThrough(t, l, last+1) // rotates; the tailer still holds segment 1
				if err := l.TruncateBefore(last + 1); err != nil {
					t.Fatal(err)
				}
				if first := l.FirstLSN(); first != last+1 {
					t.Fatalf("FirstLSN %d, want %d", first, last+1)
				}
				if got, err = drain(tl); err != nil {
					t.Fatal(err)
				}
				wantRun(t, got, last+1, last+1)
			},
		},
		{
			name: "reset under the tailer is a sticky error",
			opt:  Options{SyncInterval: -1},
			run: func(t *testing.T, l *Log, _ string) {
				tl := mustTail(t, l, 1)
				appendThrough(t, l, 5)
				if got, err := drain(tl); err != nil || len(got) != 5 {
					t.Fatalf("delivered %d, err %v", len(got), err)
				}
				// Reset to the very next LSN: numbering alone could not tell.
				if err := l.Reset(6); err != nil {
					t.Fatal(err)
				}
				appendThrough(t, l, 8)
				for i := 0; i < 2; i++ {
					got, err := drain(tl)
					if !errors.Is(err, ErrTailLost) || len(got) != 0 {
						t.Fatalf("Next %d after reset: %d records, err %v; want ErrTailLost", i, len(got), err)
					}
				}
				// A fresh tail reads the new log.
				got, err := drain(mustTail(t, l, 6))
				if err != nil {
					t.Fatal(err)
				}
				wantRun(t, got, 6, 8)
			},
		},
		{
			name: "bytes past the durable LSN are never delivered",
			opt:  neverSync(),
			gate: gate,
			run: func(t *testing.T, l *Log, dir string) {
				appendThrough(t, l, 3)
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
				// Stall a sync of LSNs 4 and 5 between its write and its
				// fsync: the file holds both, neither is durable.
				appendThrough(t, l, 4)
				big := Record{Type: 9, Data: bytes.Repeat([]byte("x"), 6000)}
				if _, err := l.Append(big); err != nil {
					t.Fatal(err)
				}
				synced := gate.stallSync(l)
				// Tear LSN 5, as a reader racing the write would find it.
				seg := segmentPath(dir, 1)
				full, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				frames3 := 3 * len(EncodeFrame(nil, tailRec(1)))
				torn := len(full) - len(EncodeFrame(nil, big))/2
				if torn <= frames3 {
					t.Fatalf("file holds %d bytes (3 durable records = %d); the test needs a written, unsynced suffix", len(full), frames3)
				}
				if err := os.Truncate(seg, int64(torn)); err != nil {
					t.Fatal(err)
				}
				tl := mustTail(t, l, 1)
				got, err := drain(tl) // reads ahead over the unsynced, torn bytes
				if err != nil {
					t.Fatal(err)
				}
				wantRun(t, got, 1, 3)
				if got, err = drain(tl); err != nil || len(got) != 0 {
					t.Fatalf("delivered %d undurable records, err %v", len(got), err)
				}
				if err := os.WriteFile(seg, full, 0o644); err != nil { // the write completes
					t.Fatal(err)
				}
				gate.release()
				if err := <-synced; err != nil {
					t.Fatal(err)
				}
				if got, err = drain(tl); err != nil {
					t.Fatal(err)
				}
				wantRun(t, got[:1], 4, 4)
				if len(got) != 2 || got[1].lsn != 5 || !bytes.Equal(got[1].frame, EncodeFrame(nil, big)) {
					t.Fatalf("the record torn across the read-ahead came back wrong (%d records)", len(got))
				}
			},
		},
		{
			name: "a flipped byte surfaces ErrCorrupt",
			opt:  Options{SyncInterval: -1},
			run: func(t *testing.T, l *Log, dir string) {
				appendThrough(t, l, 4)
				seg := segmentPath(dir, 1)
				buf, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				frame := len(EncodeFrame(nil, tailRec(1)))
				buf[2*frame+frameHeaderLen+3] ^= 0x10 // inside record 3's payload
				if err := os.WriteFile(seg, buf, 0o644); err != nil {
					t.Fatal(err)
				}
				tl := mustTail(t, l, 1)
				got, err := drain(tl)
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err %v, want ErrCorrupt", err)
				}
				wantRun(t, got, 1, 2)
				if _, err := drain(tl); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("second Next err %v; a corrupt tail must stay failed", err)
				}
				// Replay is the same reader.
				err = l.Replay(1, func(uint64, Record) error { return nil })
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Replay err %v, want ErrCorrupt", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			syncFile := (*os.File).Sync
			if tc.gate != nil {
				syncFile = tc.gate.sync
			}
			l, err := open(dir, tc.opt, syncFile)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close() //vialint:ignore errwrap test cleanup
			tc.run(t, l, dir)
		})
	}
}

// TestTailerCostIsPerNewRecord pins the point of the cursor: with 16k
// records already delivered, one more durable record costs one frame
// decode and no allocation. The durable LSN is stepped by hand over
// records that are already on disk — exactly what a group commit does.
func TestTailerCostIsPerNewRecord(t *testing.T) {
	const done, steps = 16000, 200
	l, err := Open(t.TempDir(), neverSync())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //vialint:ignore errwrap test cleanup
	appendThrough(t, l, done+steps)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	setDurable := func(lsn uint64) {
		l.mu.Lock()
		l.durable = lsn
		l.mu.Unlock()
	}
	setDurable(done)
	tl := mustTail(t, l, 1)
	var n, last uint64
	count := func(lsn uint64, _ []byte) error {
		n++
		last = lsn
		return nil
	}
	if err := tl.Next(count); err != nil || n != done {
		t.Fatalf("catch-up delivered %d of %d, err %v", n, done, err)
	}

	durable := uint64(done)
	allocs := testing.AllocsPerRun(steps-1, func() {
		durable++
		setDurable(durable)
		n = 0
		at := tl.at
		if err := tl.Next(count); err != nil || n != 1 || last != durable {
			t.Fatalf("Next delivered %d records (last LSN %d, want %d), err %v", n, last, durable, err)
		}
		if tl.at != at+1 {
			t.Fatalf("Next decoded %d frames for one new record", tl.at-at)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Next allocates %v times per call, want 0", allocs)
	}
}

// TestOpenAfterTruncateBefore: a log whose first segment is no longer LSN 1
// (rotated, then truncated behind a snapshot) reopens, keeps its numbering,
// and still refuses a gap between segments.
func TestOpenAfterTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SyncInterval: -1, SegmentBytes: 128}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	appendThrough(t, l, 40)
	if err := l.TruncateBefore(25); err != nil {
		t.Fatal(err)
	}
	first := l.FirstLSN()
	if first == 1 || first > 25 {
		t.Fatalf("FirstLSN after truncation = %d", first)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("reopen after TruncateBefore: %v", err)
	}
	if got := l2.FirstLSN(); got != first {
		t.Fatalf("reopened FirstLSN = %d, want %d", got, first)
	}
	if got := l2.LastLSN(); got != 40 {
		t.Fatalf("reopened LastLSN = %d, want 40", got)
	}
	got, err := drain(mustTail(t, l2, first))
	if err != nil {
		t.Fatal(err)
	}
	wantRun(t, got, first, 40)
	appendThrough(t, l2, 41)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Contiguity between segments is still enforced: drop a middle one.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	if err := os.Remove(segs[1].path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, opt); err == nil {
		t.Fatal("open accepted a log with a missing middle segment")
	}
}

// TestTailerFollowsConcurrentAppends is the stream's real shape: a writer
// appending under group commit, rotating as it goes, and a tailer woken by
// DurableNotify — every record arrives once, in order, intact. Run under
// -race it also covers the tailer reading a file the log is writing.
func TestTailerFollowsConcurrentAppends(t *testing.T) {
	const total = 3000
	l, err := Open(t.TempDir(), Options{SyncInterval: time.Millisecond, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //vialint:ignore errwrap test cleanup
	appendErr := make(chan error, 1)
	go func() {
		for lsn := uint64(1); lsn <= total; lsn++ {
			if _, err := l.Append(tailRec(lsn)); err != nil {
				appendErr <- err
				return
			}
		}
		appendErr <- nil
	}()

	tl := mustTail(t, l, 1)
	next := uint64(1)
	for next <= total {
		notify := l.DurableNotify()
		err := tl.Next(func(lsn uint64, frame []byte) error {
			if lsn != next || !bytes.Equal(frame, EncodeFrame(nil, tailRec(lsn))) {
				return fmt.Errorf("got LSN %d (want %d) or a wrong frame", lsn, next)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if next <= total {
			<-notify
		}
	}
	if err := <-appendErr; err != nil {
		t.Fatal(err)
	}
	if n := segmentCount(l); n < 10 {
		t.Fatalf("only %d segments; the tail was meant to cross many rotations", n)
	}
}

// TestTailerSeeksToMark is the cost of opening a tail, where
// TestTailerCostIsPerNewRecord is the cost of following one: a tail
// opened at LSN 16000 starts at the segment's last mark at or below it and
// decodes at most one mark interval of frames before its first delivery —
// on the live log, whose marks its syncs noted, and on the reopened log,
// whose marks the open-time scan noted.
func TestTailerSeeksToMark(t *testing.T) {
	const from, hi = 16000, 16200
	dir := t.TempDir()
	l, err := Open(dir, neverSync())
	if err != nil {
		t.Fatal(err)
	}
	appendThrough(t, l, hi)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Frames only grow with the LSN's digits, so the first is the shortest.
	interval := uint64(markEvery/len(EncodeFrame(nil, tailRec(1))) + 1)
	check := func(name string, l *Log) {
		tl := mustTail(t, l, from)
		seg, _, err := l.tailPosition(tl.gen, tl.next)
		if err != nil {
			t.Fatal(err)
		}
		if seg.first != 1 {
			t.Fatalf("%s: LSN %d is in the segment starting at %d; the test needs one segment", name, from, seg.first)
		}
		if err := tl.open(seg); err != nil {
			t.Fatal(err)
		}
		if tl.at > from || from-tl.at > interval {
			t.Fatalf("%s: tail at %d opens at LSN %d: %d frames to decode, want ≤ %d", name, from, tl.at, from-tl.at, interval)
		}
		got, err := drain(tl)
		if err != nil {
			t.Fatal(err)
		}
		wantRun(t, got, from, hi)
	}
	check("live", l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, neverSync())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close() //vialint:ignore errwrap test cleanup
	check("reopened", l2)
}
