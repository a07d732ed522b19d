package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ErrTailLost means a Tailer can no longer follow its log: the log was
// Reset under it, or the records at its position were truncated away. The
// reader of a replication stream answers it by reconnecting (and, past the
// retained range, bootstrapping from a snapshot).
var ErrTailLost = errors.New("wal: tail position lost")

// Tailer is a cursor over a Log's durable records — the package's one read
// path, behind both Replay and the standby replication stream. Opened at
// LSN from, it seeks to the segment's last mark at or below from, so the
// first Next reads about one mark interval (markEvery bytes) of frames it
// does not deliver, wherever in the segment from lies; after that it keeps
// the segment file open at its byte offset, so each Next costs O(new
// records), not O(segment). It reads through one readWindow-sized buffered
// reader and one frame buffer, both reused; it follows rotation into the
// next segment; and it never forces an fsync: records at or below the
// durable LSN are in the files by construction, and nothing beyond it is
// ever parsed, so bytes a sync in progress has written (or half written)
// but not yet fsynced are never delivered.
//
// A Tailer is for one goroutine. Any error is final: every later Next
// returns it again.
type Tailer struct {
	l    *Log
	gen  uint64 // l.gen when the tail was opened
	next uint64 // LSN of the next record to deliver

	f        *os.File
	r        *bufio.Reader
	segFirst uint64 // first LSN of the open segment (0 = none open)
	at       uint64 // LSN of the frame at the reader's offset
	buf      []byte // the one frame buffer, reused across records
	err      error
}

// Tail opens a cursor whose first delivered record is LSN from. Like
// Replay it refuses a position before the retained range.
func (l *Log) Tail(from uint64) (*Tailer, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if first := l.segs[0].first; from < first {
		return nil, fmt.Errorf("%w: tail from %d: records before %d were truncated away", ErrTailLost, from, first)
	}
	return &Tailer{l: l, gen: l.gen, next: from, r: bufio.NewReaderSize(nil, readWindow)}, nil
}

// tailPosition locates LSN next for a tailer opened at generation gen: the
// segment that holds it, and the highest LSN deliverable from that segment
// right now (the durable LSN, capped at the segment's last record).
func (l *Log) tailPosition(gen, next uint64) (segment, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen != gen {
		return segment{}, 0, fmt.Errorf("%w: log was reset", ErrTailLost)
	}
	if first := l.segs[0].first; next < first {
		return segment{}, 0, fmt.Errorf("%w: records before %d were truncated away", ErrTailLost, first)
	}
	i := len(l.segs) - 1
	for l.segs[i].first > next {
		i--
	}
	limit := l.durable
	if i+1 < len(l.segs) {
		limit = min(limit, l.segs[i+1].first-1)
	}
	return l.segs[i], limit, nil
}

// Next delivers, in order, every record that became durable since the last
// call, then returns; with nothing new it returns at once. frame is the
// record's verified wire framing (what EncodeFrame produced) and is only
// valid during the call. A non-nil error from fn stops the tail and is
// passed through.
func (t *Tailer) Next(fn func(lsn uint64, frame []byte) error) error {
	if t.err == nil {
		t.err = t.advance(fn)
	}
	return t.err
}

func (t *Tailer) advance(fn func(lsn uint64, frame []byte) error) error {
	for {
		seg, limit, err := t.l.tailPosition(t.gen, t.next)
		if err != nil {
			return err
		}
		if t.next > limit {
			return nil
		}
		if seg.first != t.segFirst {
			if err := t.open(seg); err != nil {
				return err
			}
		}
		// A tail opened mid-segment starts at the last mark at or below
		// from and reads (and verifies) its way to from once — about
		// markEvery bytes at most; from then on at == next and every frame
		// read is delivered.
		for t.at <= limit {
			frame, err := readFrame(t.r, t.buf)
			if err == io.EOF {
				err = ErrTruncated // a durable record must be in the file
			}
			if err != nil {
				return fmt.Errorf("wal: segment %s record %d: %w", filepath.Base(seg.path), t.at, err)
			}
			t.buf = frame
			lsn := t.at
			t.at++
			if lsn < t.next {
				continue
			}
			t.next = lsn + 1
			if err := fn(lsn, frame); err != nil {
				return err
			}
		}
	}
}

// open switches the reader to seg, at the segment's last mark at or below
// the next LSN to deliver.
func (t *Tailer) open(seg segment) error {
	t.closeFile()
	f, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("wal: open segment for tail: %w", err)
	}
	m := seg.seek(t.next)
	if _, err := f.Seek(m.off, io.SeekStart); err != nil {
		f.Close() //vialint:ignore errwrap read-only file; the seek failure is already being returned
		return fmt.Errorf("wal: seek segment for tail: %w", err)
	}
	t.f, t.segFirst, t.at = f, seg.first, m.lsn
	t.r.Reset(f)
	return nil
}

func (t *Tailer) closeFile() {
	if t.f != nil {
		t.f.Close() //vialint:ignore errwrap read-only file; close failure cannot lose data
		t.f = nil
	}
}

// Close releases the open segment file.
func (t *Tailer) Close() {
	t.closeFile()
	if t.err == nil {
		t.err = fmt.Errorf("wal: tailer: %w", os.ErrClosed)
	}
}

// Replay invokes fn for every durable record with LSN in [from, durable],
// in order, after forcing pending appends to disk so that is the whole log
// — the read-everything contract of boot recovery and record export. It is
// one Tailer's first Next, so its cost is the records delivered plus at
// most one mark interval: replaying the tail behind a snapshot does not
// read the segment from its start. fn's record Data is only valid during
// the call. Stopping early: return a non-nil error (it is passed through).
//
//vialint:ignore dettaint syncPending samples the clock only to feed the fsync-latency histogram; the replayed record stream itself is a pure function of the log
func (l *Log) Replay(from uint64, fn func(lsn uint64, rec Record) error) error {
	if err := l.Sync(); err != nil {
		return err
	}
	t, err := l.Tail(from)
	if err != nil {
		return err
	}
	defer t.Close()
	return t.Next(func(lsn uint64, frame []byte) error {
		return fn(lsn, frameRecord(frame))
	})
}
