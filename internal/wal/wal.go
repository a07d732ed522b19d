// Package wal is the controller's durability substrate: an append-only,
// segmented record log with CRC-framed records and batched fsync (group
// commit), plus atomically-renamed state snapshots (snapshot.go).
//
// Via's gains come from a centralized controller holding months of call
// history and bandit state (§4, Algorithms 2–3); a crash that forgets that
// state resets the prediction pipeline to cold start. The WAL makes the
// control plane's learned state durable and replicable: every state-bearing
// request (choose, report, lease term change) is appended here before it is
// applied, a warm standby tails the log over HTTP, and on boot the
// controller restores the latest snapshot and replays the tail.
//
// On-disk format. A log is a directory of segment files named
// %016x.wal, where the hex number is the LSN (1-based record sequence
// number) of the segment's first record. Each record is framed as
//
//	[4B big-endian payload length][4B CRC-32C of payload][payload]
//	payload = [1B record type][type-specific data]
//
// The CRC detects bit flips; the length prefix plus a hard cap detects
// garbage. A torn final record (partial write at crash) is detected on open
// and truncated away — everything before it is intact by construction,
// because records are written strictly append-only.
//
// Reading through a window. Nothing that reads the log holds a segment in
// memory. Open scans each segment through one 64 KiB buffered reader,
// checking each frame's CRC as its bytes pass through; a length prefix
// claiming more bytes than the file has left is a torn tail, found before
// anything is read or allocated for it. Every other read — boot replay,
// the standby stream — is a Tailer (tail.go) with a window of the same
// size. A sparse in-memory index of (LSN, byte offset) marks, one about
// every 64 KiB of each segment, filled by the open-time scan and by each
// sync as it publishes the durable LSN, lets a tail opened at LSN k seek
// near k instead of reading its segment from byte 0. The marks live with
// their segment, so TruncateBefore and Reset drop them with the files.
//
// Durability model. Append encodes the record into a log-owned pending
// buffer and returns: it makes no syscall, and the record is neither in
// the file nor in the OS yet. A committer goroutine syncs every
// SyncInterval (group commit): under the log's lock it swaps the pending
// buffer out, then writes it to the active segment and fsyncs with the
// lock released, so appends keep landing in the other buffer while the
// disk works, and only then publishes the durable LSN. A process or an OS
// crash therefore loses at most the records appended in the last
// SyncInterval plus the sync in flight; nothing acknowledged as durable
// is lost. Sync forces one for callers that need a floor (snapshots,
// promotion, tests). Past a fixed pending bound, Append syncs inline —
// backpressure when the disk stalls. Readers — boot replay, the standby
// stream — only see records up to the durable LSN, so a replica can never
// apply a record the primary could still lose.
//
// A failed write or fsync is sticky. After a failed fsync the kernel may
// already have marked the lost pages clean, so a retry can succeed without
// the data ever reaching the disk; the log therefore records the first
// failure, never advances the durable LSN again, and returns the error
// from every later Append, Sync and Close.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Type tags a record's payload. The wal package treats payloads as opaque;
// the controller defines the record vocabulary (see controller.WAL*).
type Type uint8

// Record is one log entry.
//
//via:walrecord
type Record struct {
	Type Type
	Data []byte
}

// MaxRecordBytes caps a single payload. Anything larger in a length prefix
// is treated as corruption, so a flipped length byte cannot make the reader
// attempt a gigabyte allocation.
const MaxRecordBytes = 16 << 20

// frameHeaderLen is the fixed per-record framing overhead.
const frameHeaderLen = 8

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcChecksum is the package's one checksum function: CRC-32C over b.
func crcChecksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Decode errors. ErrTruncated means the buffer ends mid-frame (a torn tail
// — benign at the end of a log); ErrCorrupt means the frame is actively
// wrong (bad length, CRC mismatch, empty payload) and must not be applied.
var (
	ErrTruncated = errors.New("wal: truncated frame")
	ErrCorrupt   = errors.New("wal: corrupt frame")
)

// EncodeFrame appends the record's wire framing to dst and returns the
// extended slice, growing dst at most once.
func EncodeFrame(dst []byte, rec Record) []byte {
	payloadLen := 1 + len(rec.Data)
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(payloadLen))
	start := len(dst)
	dst = slices.Grow(dst, frameHeaderLen+payloadLen)
	dst = append(dst, hdr[:]...)
	dst = append(dst, byte(rec.Type))
	dst = append(dst, rec.Data...)
	crc := crc32.Checksum(dst[start+frameHeaderLen:], castagnoli)
	binary.BigEndian.PutUint32(dst[start+4:start+8], crc)
	return dst
}

// Options tunes a Log. The zero value gives production defaults.
type Options struct {
	// SyncInterval is the group-commit window: how long an acknowledged
	// append may sit in the log's pending buffer, in process memory,
	// before a sync writes and fsyncs it — the crash-loss window. 0 means
	// the 2ms default; negative means write and fsync synchronously on
	// every append (tests and strict-durability callers).
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 8 MiB), bounding both replay batch size and the granularity
	// at which TruncateBefore can reclaim space.
	SegmentBytes int64
	// Metrics, when set, receives via_wal_appends_total and
	// via_wal_fsync_seconds.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SyncInterval == 0 {
		o.SyncInterval = 2 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}

// segment is one on-disk log file.
type segment struct {
	first uint64 // LSN of the segment's first record
	path  string
	// marks is the segment's sparse index, ascending: one mark about every
	// markEvery bytes, noted by the open-time scan and by each sync as it
	// publishes the durable LSN. The segment's start, (first, 0), is
	// implicit. Appended to under Log.mu only; a copy of the slice header
	// taken under mu stays valid to read after it is released.
	marks []mark
}

// mark locates one record in its segment: the frame of LSN lsn starts at
// byte off.
type mark struct {
	lsn uint64
	off int64
}

// markEvery spaces a segment's marks. A tail opened mid-segment seeks to
// the last mark at or below its start, so it reads and verifies at most
// about this many bytes of frames it does not deliver.
const markEvery = 64 << 10

// readWindow sizes the buffered reader of every segment read — the
// open-time scan and each Tailer — and so bounds the memory a read holds
// beyond the frame it delivers.
const readWindow = 64 << 10

// lastMark returns the byte offset of the segment's last mark: 0, its
// start, when it has none.
func (s *segment) lastMark() int64 {
	if n := len(s.marks); n > 0 {
		return s.marks[n-1].off
	}
	return 0
}

// note adds a mark for the frame of LSN lsn at byte off when that frame
// starts at least markEvery past the segment's last mark.
func (s *segment) note(lsn uint64, off int64) {
	if off-s.lastMark() >= markEvery {
		s.marks = append(s.marks, mark{lsn: lsn, off: off})
	}
}

// seek returns the last mark at or below LSN lsn, the segment's start when
// none is.
func (s *segment) seek(lsn uint64) mark {
	i := sort.Search(len(s.marks), func(i int) bool { return s.marks[i].lsn > lsn })
	if i == 0 {
		return mark{lsn: s.first}
	}
	return s.marks[i-1]
}

// maxPending bounds the pending buffer. An Append that finds this much
// still unsynced syncs inline first: if the disk stalls, appenders wait
// for it instead of buffering without limit.
const maxPending = 1 << 20

// Log is the append-only record log. Safe for concurrent use.
//
// Lock order: syncMu, then mu. mu guards the in-memory log; Append takes
// only mu, and no write or fsync of appended records runs under it.
// syncMu serialises every sync against the others and against whatever
// swaps or closes the active file (rotation, Reset, Close) or removes
// segments (TruncateBefore), so the file a sync writes outside mu stays
// the active one until the sync is done.
type Log struct {
	dir string
	opt Options

	syncMu sync.Mutex

	mu       sync.Mutex
	segs     []segment     // guarded by mu — closed segments plus the active one, ascending by first
	f        *os.File      // guarded by mu — active segment file; replaced only with syncMu also held
	pending  []byte        // guarded by mu — encoded frames not yet written to f
	spare    []byte        // guarded by mu — the buffer the last sync wrote, reused as the next pending (nil while a sync writes it)
	next     uint64        // guarded by mu — LSN the next append receives
	active   int64         // guarded by mu — bytes appended to the active segment, pending included
	durable  uint64        // guarded by mu — highest fsynced LSN
	failed   error         // guarded by mu — first failed write or fsync; sticky
	gen      uint64        // guarded by mu — bumped by Reset, so a Tailer notices the log was replaced under it
	notify   chan struct{} // guarded by mu — closed and replaced when durable advances
	closed   bool          // guarded by mu
	syncStop chan struct{}
	syncDone chan struct{}

	// syncFile makes written bytes durable: (*os.File).Sync, or a test's
	// stall or failure.
	syncFile func(*os.File) error

	mAppends *obs.Counter
	mFsync   *obs.Histogram
}

// Open opens (or creates) the log in dir, recovering from any torn tail:
// the last segment is scanned and truncated at the first invalid frame.
// Corruption in the middle of the log (not at the tail) is an error — that
// is lost data, not a torn write, and must not be silently skipped.
func Open(dir string, opt Options) (*Log, error) {
	return open(dir, opt, (*os.File).Sync)
}

// open is Open with the fsync step supplied.
func open(dir string, opt Options, syncFile func(*os.File) error) (*Log, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{
		dir:      dir,
		opt:      opt,
		next:     1,
		notify:   make(chan struct{}),
		syncStop: make(chan struct{}),
		syncDone: make(chan struct{}),
		syncFile: syncFile,
	}
	m := opt.Metrics
	l.mAppends = m.Counter("via_wal_appends_total")
	l.mFsync = m.Histogram("via_wal_fsync_seconds", obs.LatencyBuckets())

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	// Single-threaded here (the Log has not escaped yet), but the fields
	// are mu-guarded, so recovery holds the uncontended lock anyway.
	l.mu.Lock()
	rerr := l.recoverLocked(segs)
	l.mu.Unlock()
	if rerr != nil {
		return nil, rerr
	}
	if opt.SyncInterval > 0 {
		go l.committer()
	} else {
		close(l.syncDone)
	}
	return l, nil
}

// recoverLocked installs the on-disk segments: verifies contiguity,
// relies on recoverSegment having truncated any torn tail on the last
// one, reopens it for append (or opens a fresh first segment), and marks
// everything recovered as durable. Numbering starts at the first segment
// on disk — LSN 1 only until TruncateBefore or Reset has dropped a prefix.
// Caller holds l.mu.
func (l *Log) recoverLocked(segs []segment) error {
	l.segs = segs
	if len(segs) > 0 {
		l.next = segs[0].first
	}
	r := bufio.NewReaderSize(nil, readWindow)
	for i := range segs {
		s := &segs[i]
		n, err := recoverSegment(r, s, i == len(segs)-1)
		if err != nil {
			return fmt.Errorf("wal: recover %s: %w", filepath.Base(s.path), err)
		}
		if want := l.next; s.first != want {
			return fmt.Errorf("wal: segment %s starts at LSN %d, want %d (gap or overlap)",
				filepath.Base(s.path), s.first, want)
		}
		l.next += uint64(n)
	}
	if len(segs) == 0 {
		if err := l.openSegmentLocked(l.next); err != nil {
			return err
		}
	} else {
		active := segs[len(segs)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: reopen active segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close() //vialint:ignore errwrap error path; the stat failure is already being returned
			return fmt.Errorf("wal: stat active segment: %w", err)
		}
		l.f = f
		l.active = st.Size()
	}
	l.durable = l.next - 1 // everything recovered from disk is durable
	return nil
}

// listSegments returns the directory's segment files ascending by first LSN.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 16, 64)
		if err != nil || first == 0 {
			return nil, fmt.Errorf("wal: malformed segment name %q", name)
		}
		segs = append(segs, segment{first: first, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// recoverSegment counts the valid records in a segment and notes its
// marks. For the last (tail) segment, an invalid suffix is truncated away —
// the torn-write case; for any other segment it is an error.
func recoverSegment(r *bufio.Reader, seg *segment, tail bool) (int, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, fmt.Errorf("open segment: %w", err)
	}
	defer f.Close() //vialint:ignore errwrap read-only file; the scan's read errors are what matter
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("stat segment: %w", err)
	}
	r.Reset(f)
	n, off, err := scanSegment(r, st.Size(), seg)
	switch {
	case err == nil:
		return n, nil
	case !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt):
		return 0, err // the file could not be read: no verdict on its bytes
	case !tail:
		return 0, fmt.Errorf("record %d at offset %d: %w", n, off, err)
	}
	// Torn or corrupt tail: drop it. Records are append-only, so
	// everything before the bad frame is complete.
	if terr := os.Truncate(seg.path, off); terr != nil {
		return 0, fmt.Errorf("truncate torn tail: %w", terr)
	}
	return n, nil
}

// scanSegment reads a segment of size bytes through r, noting seg's marks
// as it goes, up to its end or its first invalid frame. It returns the
// number of valid frames, the offset just past the last of them, and the
// invalid frame's verdict, as readFrame would give it over the whole
// file: ErrTruncated when the file ends inside the frame — a length prefix
// claiming more bytes than are left included, before any of them is read —
// and ErrCorrupt when it fails validation. The CRC is taken over r's
// window as the payload passes through it, so no frame is ever held whole.
// Any other error is a failed read.
func scanSegment(r *bufio.Reader, size int64, seg *segment) (int, int64, error) {
	n, off := 0, int64(0)
	for off < size {
		if size-off < frameHeaderLen {
			return n, off, ErrTruncated
		}
		hdr, err := r.Peek(frameHeaderLen)
		if err != nil {
			return n, off, fmt.Errorf("read segment: %w", err)
		}
		payloadLen := int64(binary.BigEndian.Uint32(hdr[0:4]))
		want := binary.BigEndian.Uint32(hdr[4:8])
		if payloadLen == 0 || payloadLen > MaxRecordBytes {
			return n, off, fmt.Errorf("%w: payload length %d", ErrCorrupt, payloadLen)
		}
		if payloadLen > size-off-frameHeaderLen {
			return n, off, ErrTruncated
		}
		r.Discard(frameHeaderLen) // buffered by the Peek: cannot fail
		crc := uint32(0)
		for left := payloadLen; left > 0; {
			chunk, err := r.Peek(int(min(left, int64(r.Size()))))
			if err != nil {
				return n, off, fmt.Errorf("read segment: %w", err)
			}
			crc = crc32.Update(crc, castagnoli, chunk)
			r.Discard(len(chunk)) // buffered by the Peek: cannot fail
			left -= int64(len(chunk))
		}
		if crc != want {
			return n, off, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
		}
		seg.note(seg.first+uint64(n), off)
		off += frameHeaderLen + payloadLen
		n++
	}
	return n, off, nil
}

func segmentPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x.wal", first))
}

// openSegmentLocked starts a fresh active segment whose first record will
// have LSN first. Caller holds l.mu (or is inside Open, pre-publication).
func (l *Log) openSegmentLocked(first uint64) error {
	f, err := os.OpenFile(segmentPath(l.dir, first), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.segs = append(l.segs, segment{first: first, path: f.Name()})
	l.f = f
	l.active = 0
	return nil
}

// Append adds one record and returns its LSN. It encodes the record into
// the pending buffer and makes no syscall; the record is durable once the
// next sync completes (before Append returns with SyncInterval < 0). A
// full segment, a full pending buffer and strict mode take appendSync.
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	if l.opt.SyncInterval > 0 && l.active < l.opt.SegmentBytes && len(l.pending) < maxPending {
		lsn, err := l.appendLocked(rec)
		l.mu.Unlock()
		return lsn, err
	}
	l.mu.Unlock()
	return l.appendSync(rec)
}

// appendLocked encodes rec into the pending buffer and numbers it. Caller
// holds l.mu.
func (l *Log) appendLocked(rec Record) (uint64, error) {
	if err := l.usableLocked(); err != nil {
		return 0, err
	}
	n := len(l.pending)
	l.pending = EncodeFrame(l.pending, rec)
	lsn := l.next
	l.next++
	l.active += int64(len(l.pending) - n)
	l.mAppends.Inc()
	return lsn, nil
}

// usableLocked reports why the log takes no more appends, if it does not.
// Caller holds l.mu.
func (l *Log) usableLocked() error {
	if l.closed {
		return fmt.Errorf("wal: append on closed log")
	}
	return l.failed
}

// appendSync is Append's synchronous path, under syncMu: it rotates a
// full segment or drains a full pending buffer before appending, and in
// strict mode syncs the record before returning.
func (l *Log) appendSync(rec Record) (uint64, error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	err := l.usableLocked()
	rotate, drain := l.active >= l.opt.SegmentBytes, len(l.pending) >= maxPending
	l.mu.Unlock()
	switch {
	case err != nil:
		return 0, err
	case rotate:
		err = l.rotate()
	case drain:
		err = l.syncPending()
	}
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	lsn, err := l.appendLocked(rec)
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if l.opt.SyncInterval < 0 {
		if err := l.syncPending(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// rotate seals the active segment and starts a new one. Caller holds
// l.syncMu. Once the segment is full every append waits on syncMu, so
// after syncPending nothing is pending for the sealed file.
func (l *Log) rotate() error {
	if err := l.syncPending(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close sealed segment: %w", err)
	}
	return l.openSegmentLocked(l.next)
}

// syncPending makes every appended record durable. Under l.mu it swaps
// the pending buffer for the spare one; with l.mu released it writes the
// swapped bytes to the active segment, fsyncs, and finds the marks among
// the frames written; then it publishes the durable LSN with those marks
// and wakes tailers. Appends go on meanwhile. A failure is recorded as the
// log's sticky error. Caller holds l.syncMu, which keeps l.f the active
// file, and the last of l.segs its segment, until the sync is done.
func (l *Log) syncPending() error {
	l.mu.Lock()
	if l.failed != nil || len(l.pending) == 0 {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	buf, f, upto := l.pending, l.f, l.next-1
	// Syncs run one at a time and each publishes everything it swapped, so
	// buf starts at the record after the durable LSN, at the offset the
	// active segment had before buf was appended.
	lsn, base, last := l.durable+1, l.active-int64(len(buf)), l.segs[len(l.segs)-1].lastMark()
	l.pending, l.spare = l.spare[:0], nil
	l.mu.Unlock()

	_, err := f.Write(buf)
	if err != nil {
		err = fmt.Errorf("wal: write: %w", err)
	} else {
		start := time.Now()
		if err = l.syncFile(f); err != nil {
			err = fmt.Errorf("wal: fsync: %w", err)
		} else {
			l.mFsync.Observe(time.Since(start).Seconds())
		}
	}
	var marks []mark // about one per markEvery bytes written: most syncs find none
	if err == nil {
		for i := 0; i < len(buf); i += frameHeaderLen + int(binary.BigEndian.Uint32(buf[i:])) {
			if off := base + int64(i); off-last >= markEvery {
				marks = append(marks, mark{lsn: lsn, off: off})
				last = off
			}
			lsn++
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.spare = buf[:0]
	if err != nil {
		l.failed = err
		return err
	}
	l.durable = upto
	active := &l.segs[len(l.segs)-1]
	active.marks = append(active.marks, marks...)
	close(l.notify)
	l.notify = make(chan struct{})
	return nil
}

// Sync makes every record appended so far durable now.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncPending()
}

// committer is the group-commit goroutine: it syncs pending appends every
// SyncInterval.
func (l *Log) committer() {
	defer close(l.syncDone)
	tick := time.NewTicker(l.opt.SyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-l.syncStop:
			return
		case <-tick.C:
		}
		l.syncMu.Lock()
		//vialint:ignore errwrap a failed sync becomes the log's sticky error, which every later Append, Sync and Close returns; the committer has no caller to return to
		_ = l.syncPending()
		l.syncMu.Unlock()
	}
}

// LastLSN returns the LSN of the most recently appended record (0 = empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// DurableLSN returns the highest LSN guaranteed on disk.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// FirstLSN returns the lowest LSN still present in the log (after
// truncation), or last+1 when the log holds no records.
func (l *Log) FirstLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].first
}

// DurableNotify returns a channel that is closed the next time the durable
// LSN advances. Callers re-fetch the channel after each wakeup.
func (l *Log) DurableNotify() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notify
}

// ReadFrameBuf reads one frame from a stream — a segment file or a
// standby's HTTP tail of the primary's log — into buf, grown when too
// small. io.EOF at a frame boundary means a clean end; a partial frame is
// ErrTruncated. It returns the buffer to pass to the next call, so a
// reader of many frames allocates only for the largest; the record's Data
// aliases that buffer.
func ReadFrameBuf(r io.Reader, buf []byte) (Record, []byte, error) {
	frame, err := readFrame(r, buf)
	if err != nil {
		return Record{}, buf, err
	}
	return frameRecord(frame), frame, nil
}

// readFrame is the package's one stream decoder: it reads a frame from r
// into buf (grown when too small) and returns it whole — header and
// payload, length-checked and CRC-verified — so a caller can forward the
// wire bytes verbatim or split them with frameRecord. Passing the returned
// slice back in as buf makes steady-state reads allocation-free.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], frameHeaderLen)[:frameHeaderLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err) //nolint:errorlint
	}
	payloadLen := binary.BigEndian.Uint32(buf[0:4])
	if payloadLen == 0 || payloadLen > MaxRecordBytes {
		return nil, fmt.Errorf("%w: payload length %d", ErrCorrupt, payloadLen)
	}
	buf = slices.Grow(buf, int(payloadLen))[:frameHeaderLen+int(payloadLen)]
	payload := buf[frameHeaderLen:]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrTruncated, err) //nolint:errorlint
	}
	if crcChecksum(payload) != binary.BigEndian.Uint32(buf[4:8]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return buf, nil
}

// frameRecord splits a verified frame into its record. Data aliases frame.
func frameRecord(frame []byte) Record {
	return Record{Type: Type(frame[frameHeaderLen]), Data: frame[frameHeaderLen+1:]}
}

// TruncateBefore removes whole segments every one of whose records has
// LSN < keep — called after a snapshot at keep-1 makes them redundant. The
// active segment is never removed. The files are removed, and the
// directory synced, with l.mu released; syncMu keeps a concurrent Reset
// from reusing a removed name meanwhile.
func (l *Log) TruncateBefore(keep uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	var drop []segment
	for len(l.segs) > 1 && l.segs[1].first <= keep {
		drop = append(drop, l.segs[0])
		l.segs[0] = segment{} // the backing array outlives the reslice: release the marks now
		l.segs = l.segs[1:]
	}
	l.mu.Unlock()
	for _, s := range drop {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("wal: remove truncated segment: %w", err)
		}
	}
	if len(drop) > 0 {
		return syncDir(l.dir)
	}
	return nil
}

// Reset discards the entire log and restarts numbering so the next append
// receives LSN next. A standby uses it after installing a snapshot from the
// primary whose covered records it never saw.
func (l *Log) Reset(next uint64) error {
	if next == 0 {
		return fmt.Errorf("wal: reset to LSN 0 (LSNs are 1-based)")
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: reset on closed log")
	}
	if l.failed != nil {
		return l.failed
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: reset close active: %w", err)
	}
	for _, s := range l.segs {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("wal: reset remove segment: %w", err)
		}
	}
	l.segs = nil
	l.pending = l.pending[:0] // superseded along with the files
	l.gen++
	l.next = next
	l.durable = next - 1
	if err := l.openSegmentLocked(next); err != nil {
		return err
	}
	return syncDir(l.dir)
}

// Close syncs what is pending and closes the log. A log whose sync failed
// returns that failure here too.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stopCommitter := l.opt.SyncInterval > 0
	l.mu.Unlock()
	if stopCommitter {
		close(l.syncStop)
		<-l.syncDone
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	err := l.syncPending()
	l.mu.Lock()
	defer l.mu.Unlock()
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close active segment: %w", cerr)
	}
	return err
}

// syncDir fsyncs a directory so renames and removals within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	defer d.Close() //vialint:ignore errwrap read-only directory handle; the Sync result is what matters
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
