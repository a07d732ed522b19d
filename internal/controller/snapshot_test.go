package controller

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wal"
)

// countingStrategy's whole state is the number of Choose calls it has
// applied. Its capture copies the count; its encoder can be made to stall,
// standing in for a slow gob encode.
type countingStrategy struct {
	n        uint64
	stall    bool          // the next encoder waits for release
	encoding chan struct{} // a stalled encoder announces itself here
	release  chan struct{}
}

func newCountingStrategy() *countingStrategy {
	return &countingStrategy{encoding: make(chan struct{}), release: make(chan struct{})}
}

func (c *countingStrategy) Name() string { return "counting" }
func (c *countingStrategy) Choose(core.Call, []netsim.Option) netsim.Option {
	c.n++
	return netsim.DirectOption()
}
func (c *countingStrategy) Observe(core.Call, netsim.Option, quality.Metrics) {}

func (c *countingStrategy) CaptureState() (func(io.Writer) error, error) {
	n, stall := c.n, c.stall
	c.stall = false
	return func(w io.Writer) error {
		if stall {
			c.encoding <- struct{}{}
			<-c.release
		}
		return binary.Write(w, binary.BigEndian, n)
	}, nil
}

func (c *countingStrategy) SaveState(w io.Writer) error {
	encode, err := c.CaptureState()
	if err != nil {
		return err
	}
	return encode(w)
}

func (c *countingStrategy) LoadState(r io.Reader) error {
	return binary.Read(r, binary.BigEndian, &c.n)
}

// copyDir copies a directory tree: the image a crash would leave on disk
// when every write so far has been fsynced.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// snapshotCount decodes the counting strategy's state from a snapshot.
func snapshotCount(t *testing.T, walDir string) (lsn, n uint64) {
	t.Helper()
	lsn, payload, ok, err := wal.LatestSnapshot(snapDir(walDir))
	if err != nil || !ok {
		t.Fatalf("no snapshot (err %v)", err)
	}
	var snap ctrlSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Strategy) != 8 {
		t.Fatalf("strategy state is %d bytes", len(snap.Strategy))
	}
	return lsn, binary.BigEndian.Uint64(snap.Strategy)
}

// TestSnapshotEncodeOutsideWalMu: a snapshot holds walMu only to copy the
// state. While its encoder stalls, a choose is served; the snapshot still
// covers exactly the state at its LSN; and a crash before the write
// leaves the previous snapshot and the whole log to recover from.
func TestSnapshotEncodeOutsideWalMu(t *testing.T) {
	dir := t.TempDir()
	strat := newCountingStrategy()
	s, err := Open(Config{Strategy: strat, WALDir: dir, WALSyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //vialint:ignore errwrap test cleanup
	call := core.Call{Src: 1, Dst: 2, THours: 1}
	choose := func() {
		t.Helper()
		if _, _, err := s.applyChoose(call, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// LSN 1 is the boot term record; every choose is one more.
	for i := 0; i < 5; i++ {
		choose()
	}
	prevLSN, _, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	choose()

	strat.stall = true
	type result struct {
		lsn uint64
		err error
	}
	snapped := make(chan result, 1)
	go func() {
		lsn, _, err := s.Snapshot()
		snapped <- result{lsn, err}
	}()
	<-strat.encoding
	served := make(chan struct{})
	go func() {
		choose()
		close(served)
	}()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("a choose waited for the snapshot encoder")
	}

	crashed := filepath.Join(t.TempDir(), "crash")
	copyDir(t, dir, crashed)
	if lsn, n := snapshotCount(t, crashed); lsn != prevLSN || n != prevLSN-1 {
		t.Fatalf("crash image holds snapshot LSN %d (count %d), want the previous one, LSN %d", lsn, n, prevLSN)
	}
	recovered := newCountingStrategy()
	rs, err := Open(Config{Strategy: recovered, WALDir: crashed, WALSyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if recovered.n != strat.n {
		t.Fatalf("recovered count %d from the crash image, live count %d", recovered.n, strat.n)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}

	close(strat.release)
	r := <-snapped
	if r.err != nil {
		t.Fatal(r.err)
	}
	if lsn, n := snapshotCount(t, dir); lsn != r.lsn || n != lsn-1 {
		t.Fatalf("snapshot at LSN %d holds count %d, want %d", lsn, n, lsn-1)
	}
	if r.lsn != s.AppliedLSN()-1 {
		t.Fatalf("snapshot LSN %d; the choose served during its encode is LSN %d", r.lsn, s.AppliedLSN())
	}
}

// saveOnly forwards a counting strategy without its CaptureState, like a
// decorator that forwards only SaveState.
type saveOnly struct{ c *countingStrategy }

func (s saveOnly) Name() string { return s.c.Name() }
func (s saveOnly) Choose(call core.Call, cands []netsim.Option) netsim.Option {
	return s.c.Choose(call, cands)
}
func (s saveOnly) Observe(call core.Call, opt netsim.Option, m quality.Metrics) {
	s.c.Observe(call, opt, m)
}
func (s saveOnly) SaveState(w io.Writer) error { return s.c.SaveState(w) }
func (s saveOnly) LoadState(r io.Reader) error { return s.c.LoadState(r) }

// TestSnapshotWithoutCaptureState: a strategy that only saves whole is
// snapshotted through SaveState, and the controller recovers from it.
func TestSnapshotWithoutCaptureState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Strategy: saveOnly{newCountingStrategy()}, WALDir: dir, WALSyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := s.applyChoose(core.Call{Src: 1, Dst: 2, THours: 1}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	lsn, _, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, n := snapshotCount(t, dir); got != lsn || n != 3 {
		t.Fatalf("snapshot at LSN %d holds count %d, want LSN %d count 3", got, n, lsn)
	}
	recovered := newCountingStrategy()
	rs, err := Open(Config{Strategy: saveOnly{recovered}, WALDir: dir, WALSyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close() //vialint:ignore errwrap test cleanup
	if recovered.n != 3 {
		t.Fatalf("recovered count %d, want 3", recovered.n)
	}
}

// warmVia feeds a durable controller a bench-sized history: 10k calls,
// each a choose and a report, drawn zipf(1.1) from 4096 AS pairs with a
// direct path and five bounce candidates each, across a day boundary.
func warmVia(tb testing.TB, s *Server) {
	tb.Helper()
	z := stats.NewZipf(stats.NewRNG(1), 4096, 1.1)
	for i := 0; i < 10000; i++ {
		p := z.Sample()
		cands := []netsim.Option{netsim.DirectOption()}
		for k := 0; k < 5; k++ {
			cands = append(cands, netsim.BounceOption(netsim.RelayID(1+(p+3*k)%16)))
		}
		call := core.Call{Src: netsim.ASID(1000 + 2*p), Dst: netsim.ASID(1001 + 2*p), THours: 20 + float64(i)*0.001}
		opt, _, err := s.applyChoose(call, cands, nil)
		if err != nil {
			tb.Fatal(err)
		}
		m := quality.Metrics{RTTMs: 40 + float64(i%200), LossRate: float64(i%13) / 400, JitterMs: 1 + float64(i%17)/2}
		if err := s.applyReport(call, opt, transport.ToWireMetrics(m), "", 0); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkSnapshotWalMuHold times what a background snapshot holds walMu
// for at bench-sized state (the copy; walmu_hold_us), and the encode that
// now runs after it is released (encode_us).
func BenchmarkSnapshotWalMuHold(b *testing.B) {
	s, err := Open(Config{
		Strategy: core.NewVia(core.DefaultViaConfig(quality.RTT), nil),
		WALDir:   b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close() //vialint:ignore errwrap benchmark cleanup
	warmVia(b, s)
	holds := make([]time.Duration, b.N)
	var enc time.Duration
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		s.walMu.Lock()
		_, encode, err := s.captureSnapshotLocked()
		s.walMu.Unlock()
		t1 := time.Now()
		if err != nil {
			b.Fatal(err)
		}
		payload, err := encode()
		if err != nil {
			b.Fatal(err)
		}
		holds[i] = t1.Sub(t0)
		enc += time.Since(t1)
		size = len(payload)
	}
	b.StopTimer()
	slices.Sort(holds)
	b.ReportMetric(float64(holds[len(holds)/2].Microseconds()), "walmu_hold_us_p50")
	b.ReportMetric(float64(enc.Microseconds())/float64(b.N), "encode_us")
	b.ReportMetric(float64(size), "snapshot_B")
}
