package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/wal"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestGoodDecileAndSpread(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4, 6, 7, 8, 9, 10, 11}
	if got := goodDecile(xs, true); got != 2 {
		t.Errorf("lower-is-better decile = %v, want 2", got)
	}
	if got := goodDecile(xs, false); got != 10 {
		t.Errorf("higher-is-better decile = %v, want 10", got)
	}
	if got := spread(xs[:5]); got != 4.0/3 {
		t.Errorf("spread = %v, want (5-1)/3", got)
	}
	if median(nil) != 0 || spread(nil) != 0 {
		t.Error("no samples must read 0, not NaN")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100},              // 1: root with two sibling children and a grandchild
		{parent: 1, start: 10, end: 40},   // 2
		{parent: 1, start: 50, end: 90},   // 3
		{parent: 3, start: 60, end: 70},   // 4: nested under 3
		{start: 200, end: 300},            // 5: root whose children overlap each other and overrun it
		{parent: 5, start: 210, end: 260}, // 6
		{parent: 5, start: 240, end: 320}, // 7: overlaps 6, ends after its parent
		{start: 400, end: 450},            // 8: childless
	}
	want := []int64{
		100 - 30 - 40, // both children, not the grandchild
		30,
		40 - 10,
		10,
		100 - 90, // union of [210,260] and [240,300]
		50,
		80,
		50,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	rec := newRecorder(4)
	if id := rec.begin(spCoreChoose, 0, 0); id != 0 {
		t.Fatalf("recorder that is off handed out span %d", id)
	}
	rec.on.Store(true)
	for i := 0; i < 6; i++ {
		rec.end(rec.begin(spCoreChoose, 0, int32(i)))
	}
	if got := len(rec.recorded()); got != 4 {
		t.Errorf("recorded %d spans, want the 4 that fit", got)
	}
	if got := rec.dropped.Load(); got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}
	var none *recorder
	none.end(none.begin(spCoreChoose, 0, 0)) // a nil recorder is a no-op
}

func TestCallStreamIsAPureFunctionOfTheSeed(t *testing.T) {
	a, b := callStream(7, "latency", 3000), callStream(7, "latency", 3000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and label gave different streams")
	}
	other := callStream(8, "latency", 3000)
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds gave the same stream")
	}
	if reflect.DeepEqual(a, callStream(7, "warm", 3000)) {
		t.Fatal("different labels gave the same stream")
	}
	// Stratified: every seed draws the same multiset of ranks, skewed to
	// the hot pairs.
	sorted := func(xs []int32) []int32 {
		s := append([]int32(nil), xs...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	sa := sorted(a)
	if !reflect.DeepEqual(sa, sorted(other)) {
		t.Error("streams of different seeds are not permutations of each other")
	}
	if len(a) != 3000 {
		t.Errorf("stream has %d calls, want 3000", len(a))
	}
	hot := sort.Search(len(sa), func(i int) bool { return sa[i] > 0 })
	if hot < 400 || hot > 560 {
		t.Errorf("the hottest pair has %d of 3000 calls; Zipf(4096, 1.1) gives it about 0.16", hot)
	}
}

func TestPairCandidates(t *testing.T) {
	for p, cands := range pairCandidates() {
		if len(cands) != perCall+1 || cands[0] != netsim.DirectOption() {
			t.Fatalf("pair %d: candidates %v", p, cands)
		}
		seen := map[netsim.Option]bool{}
		for _, c := range cands {
			if seen[c] {
				t.Fatalf("pair %d offers %v twice", p, c)
			}
			seen[c] = true
		}
	}
}

func TestPayloadIntact(t *testing.T) {
	buf := make([]byte, payloadLen)
	fillPayload(buf, 3, 17, 42)
	copy(buf[tsOffset:], "sendtime")
	if !payloadIntact(buf, 3) {
		t.Fatal("an untouched payload reads as altered")
	}
	if payloadIntact(buf, 4) {
		t.Error("a payload of another seed reads as intact")
	}
	buf[payloadLen-1] ^= 1
	if payloadIntact(buf, 3) {
		t.Error("a flipped bit went unnoticed")
	}
	if payloadIntact(buf[:payloadLen-1], 3) {
		t.Error("a short payload reads as intact")
	}
}

// viaStream drives a strategy with calls that cross one epoch boundary, as
// a repetition does, and returns its decisions.
func viaStream(s core.Strategy) []netsim.Option {
	cands := pairCandidates()
	var out []netsim.Option
	for i, pair := range callStream(1, "test", 3000) {
		src, dst := pairGroups(pair)
		call := core.Call{Src: netsim.ASID(src), Dst: netsim.ASID(dst), THours: 0.001 * float64(i)}
		if i >= 1500 {
			call.THours += 25
		}
		opt := s.Choose(call, cands[pair])
		s.Observe(call, opt, measure(pair, opt))
		out = append(out, opt)
	}
	return out
}

func TestTimedStrategyIsTransparent(t *testing.T) {
	bare := core.NewVia(core.DefaultViaConfig(quality.RTT), nil)
	inner := core.NewVia(core.DefaultViaConfig(quality.RTT), nil)
	h := &handlerTrace{rec: newRecorder(8000)}
	h.rec.on.Store(true)
	wrapped := &timedStrategy{inner: inner, h: h}

	if !reflect.DeepEqual(viaStream(bare), viaStream(wrapped)) {
		t.Fatal("the wrapped strategy decided differently from the bare one")
	}
	var want, got bytes.Buffer
	if err := bare.SaveState(&want); err != nil {
		t.Fatal(err)
	}
	if err := wrapped.SaveState(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("the wrapped strategy reached different SaveState bytes")
	}
	if wrapped.Name() != bare.Name() {
		t.Errorf("Name() = %q, want %q", wrapped.Name(), bare.Name())
	}
	if n := len(h.rec.recorded()); n != 6000 {
		t.Errorf("recorded %d core spans, want one per Choose and per Observe (6000)", n)
	}
	restored := &timedStrategy{inner: core.NewVia(core.DefaultViaConfig(quality.RTT), nil), h: h}
	if err := restored.LoadState(bytes.NewReader(want.Bytes())); err != nil {
		t.Fatal(err)
	}
	got.Reset()
	if err := restored.SaveState(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("LoadState through the wrapper did not restore the state")
	}
}

// fakePlane records what reaches it and answers with fixed values.
type fakePlane struct {
	calls []string
	opt   netsim.Option
	err   error
}

func (f *fakePlane) Choose(src, dst int32, cands []netsim.Option) (netsim.Option, error) {
	f.calls = append(f.calls, "choose "+strconv.Itoa(int(src))+" "+strconv.Itoa(int(dst))+" "+strconv.Itoa(len(cands)))
	return f.opt, f.err
}

func (f *fakePlane) Report(src, dst int32, opt netsim.Option, m quality.Metrics) error {
	f.calls = append(f.calls, "report "+strconv.Itoa(int(src))+" "+strconv.Itoa(int(dst))+" "+opt.String()+" "+strconv.FormatFloat(m.RTTMs, 'f', 1, 64))
	return f.err
}

func TestTimedPlaneIsTransparent(t *testing.T) {
	inner := &fakePlane{opt: netsim.BounceOption(3), err: os.ErrDeadlineExceeded}
	rec := newRecorder(8)
	rec.on.Store(true)
	p := &timedPlane{inner: inner, rec: rec, parent: 0, call: 9}
	cands := []netsim.Option{netsim.DirectOption(), netsim.BounceOption(3)}
	opt, err := p.Choose(1, 2, cands)
	if opt != inner.opt || err != inner.err {
		t.Errorf("Choose returned (%v, %v), want the inner plane's (%v, %v)", opt, err, inner.opt, inner.err)
	}
	if err := p.Report(1, 2, opt, quality.Metrics{RTTMs: 80}); err != inner.err {
		t.Errorf("Report returned %v, want the inner plane's %v", err, inner.err)
	}
	want := []string{"choose 1 2 2", "report 1 2 " + opt.String() + " 80.0"}
	if !reflect.DeepEqual(inner.calls, want) {
		t.Errorf("inner plane saw %v, want %v", inner.calls, want)
	}
	spans := rec.recorded()
	if len(spans) != 2 || spans[0].name != spClientChoose || spans[1].name != spClientReport || spans[0].call != 9 {
		t.Errorf("recorded %+v, want one choose and one report span of call 9", spans)
	}
}

func TestHandlerAndTransportCarryTheTraceAcrossHTTP(t *testing.T) {
	rec := newRecorder(8)
	rec.on.Store(true)
	h := &handlerTrace{rec: rec}
	var sawHeader string
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawHeader = r.Header.Get("Content-Type")
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "body")
	})
	srv := httptest.NewServer(h.wrap(inner))
	defer srv.Close()

	plane := &timedPlane{rec: rec, call: 5}
	plane.cur = rec.begin(spClientChoose, 0, 5)
	hc := &http.Client{Timeout: 5 * time.Second, Transport: tagTransport{base: http.DefaultTransport, plane: plane}}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/choose", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTeapot || string(body) != "body" || sawHeader != "application/json" {
		t.Errorf("got %d %q (inner saw Content-Type %q): the middleware altered the exchange", resp.StatusCode, body, sawHeader)
	}
	if req.Header.Get(hdrSpan) != "" {
		t.Error("the transport modified the caller's request")
	}
	spans := rec.recorded()
	if len(spans) != 2 || spans[1].name != spHandlerChoose || spans[1].parent != plane.cur || spans[1].call != 5 {
		t.Errorf("recorded %+v, want a handler span whose parent is the client span", spans)
	}

	// Requests other than choose and report pass through untimed.
	resp, err = hc.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rec.recorded()) != 2 {
		t.Error("a stats request was given a span")
	}
}

func TestTimedConnIsTransparent(t *testing.T) {
	a, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	tc := newTimedConn(a, time.Now(), 1)

	if _, err := b.WriteTo([]byte("ping"), tc.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	deadline := time.Now().Add(2 * time.Second) // a lost datagram fails the test instead of hanging it
	if err := errors.Join(a.SetReadDeadline(deadline), b.SetReadDeadline(deadline)); err != nil {
		t.Fatal(err)
	}
	n, from, err := tc.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "ping" || from.String() != b.LocalAddr().String() {
		t.Fatalf("ReadFrom = %q from %v, %v", buf[:n], from, err)
	}
	for i := 0; i < 2; i++ { // the second send finds the sample slice full
		if n, err := tc.WriteTo([]byte("pong"), from); n != 4 || err != nil {
			t.Fatalf("WriteTo = %d, %v", n, err)
		}
		n, _, err := b.ReadFrom(buf)
		if err != nil || string(buf[:n]) != "pong" {
			t.Fatalf("peer read %q, %v", buf[:n], err)
		}
	}
	if len(tc.samples) != 1 {
		t.Fatalf("kept %d samples, want 1 (the preallocation)", len(tc.samples))
	}
	if s := tc.samples[0]; !(s.readAt <= s.writeAt && s.writeAt <= s.writeEnd) {
		t.Errorf("sample times out of order: %+v", s)
	}
	var _ net.PacketConn = tc
}

// The controller keeps only the newest two snapshot files; the watcher has
// to have counted the ones pruned since.
func TestSnapshotWatcherCountsPrunedSnapshots(t *testing.T) {
	dir := t.TempDir()
	w := watchSnapshots(dir)
	for lsn := uint64(1); lsn <= 4; lsn++ {
		if _, err := wal.WriteSnapshot(filepath.Join(dir, "snapshots"), lsn*4096, []byte("state")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * snapshotPoll)
	}
	if got := w.count(); got != 4 {
		t.Errorf("watcher saw %d snapshots, want 4", got)
	}
	if got := w.count(); got != 4 {
		t.Errorf("a second count() = %d, want the same 4", got)
	}
	var none *snapshotWatcher
	if none.count() != 0 {
		t.Error("a nil watcher saw snapshots")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the program prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads(1, false)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := spec.EndToEnd[i]
		better := map[bool]string{true: "lower", false: "higher"}[d.lowerBetter]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := spec.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
}
