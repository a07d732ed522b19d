package controller

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/transport"
	"repro/internal/transport/codectest"
	"repro/internal/wal"
)

var (
	walChooseShape = codectest.Shape[walChoose]{
		Decode: (*walChoose).DecodeJSON, Append: walChoose.AppendJSON,
		Canonical: func(data []byte) bool {
			var v walChoose
			s := transport.ScanJSON(data)
			v.scanJSON(&s)
			return s.End()
		},
	}
	walReportShape = codectest.Shape[walReport]{
		Decode: (*walReport).DecodeJSON, Append: walReport.AppendJSON,
		Canonical: func(data []byte) bool {
			var v walReport
			s := transport.ScanJSON(data)
			v.scanJSON(&s)
			return s.End()
		},
	}
)

// Records as the log holds them: the first of each pair as a controller
// from before the repair layer wrote it, the second as one writes it now.
const (
	legacyChooseRecord = `{"t_hours":25.097,"src":3,"dst":9,"cands":[{"kind":"direct"},{"kind":"bounce","r1":1},{"kind":"bounce","r1":2},{"kind":"transit","r1":1,"r2":2}]}`
	repairChooseRecord = `{"t_hours":25.194000000000003,"src":4,"dst":10,"cands":[{"kind":"direct"},{"kind":"bounce","r1":1}],"repair":["none","nack","red","fec-4"]}`
	legacyReportRecord = `{"t_hours":25.097,"src":3,"dst":9,"option":{"kind":"bounce","r1":1},"metrics":{"rtt_ms":83.41926775,"loss_rate":0.0125,"jitter_ms":4.5}}`
	repairReportRecord = `{"t_hours":25.194000000000003,"src":4,"dst":10,"option":{"kind":"direct"},"metrics":{"rtt_ms":40,"loss_rate":0,"jitter_ms":1},"repair":"fec-4","duration_sec":120}`
)

// FuzzWALRecordCodec holds the two hot WAL records to the identity
// contract (internal/transport/jsoncodec.go): on arbitrary bytes
// DecodeJSON is json.Unmarshal, on every decoded value and on raw strings
// and floats AppendJSON is json.Marshal. The later seeds aim at the shared
// primitives — string escapes, floats, integers, keys, trailing data.
func FuzzWALRecordCodec(f *testing.F) {
	for _, s := range []string{
		legacyChooseRecord, repairChooseRecord, legacyReportRecord, repairReportRecord,
		"{ \"cands\" : [ { \"r1\" : 1 , \"kind\" : \"bounce\" } ] ,\n\t\"dst\" : 9 , \"src\" : 3 , \"t_hours\" : 1e-7 }",
		`{"t_hours":1e21,"src":1,"dst":2,"cands":null}`, `{"t_hours":-0,"src":1,"dst":2,"cands":[]}`,
		`{"t_hours":1,"repair":["nack","a<b&c"]}`, `{"t_hours":1,"repair":"nack"}`, `{"repair":null}`, `{"repair":[]}`,
		"{\"repair\":\"\xff\"}", `{"T_HOURS":1,"SRC":2}`, `{"t_hours":1,"t_hours":2}`, `{"t_hours":1.5,"src":1.0}`,
		`{"src":2147483648}`, `{"option":{"kind":"bounce","r1":1},"option":{"r2":2}}`, `{"option":{"hop":{"x":1}}}`,
		`{"metrics":{"rtt_ms":1e400}}`, `{"duration_sec":0}`, `{"duration_sec":-0}`, legacyReportRecord + `{}`, `null`, `{}`, ``,
	} {
		f.Add([]byte(s), s, 0.0)
	}
	for _, x := range []float64{1e-7, 1e21, math.Copysign(0, -1), math.NaN(), math.Inf(1), 25.194000000000003} {
		f.Add([]byte(repairReportRecord), "fec-4", x)
	}
	for _, s := range []string{
		// Strings: escapes, HTML-sensitive bytes, separators, invalid UTF-8.
		`{"t_hours":1,"src":1,"dst":2,"option":{"kind":"a<b&c>d"},"repair":"q\"\\\/\b\f\n\r\t"}`,
		"{\"t_hours\":1,\"option\":{\"kind\":\"\u2028\u2029\u00e9\"},\"repair\":\"\xff\xc0\xaf\"}",
		`{"option":{"kind":"\ud800"},"repair":"\ud83d\ude00"}`, `{"repair":["\u006eack","fec-4"]}`,
		"{\"repair\":\"tab\there\"}", `{"repair":"\x"}`, `{"repair":"unterminated`, `{"repair":["a",null]}`,
		// Numbers.
		`{"metrics":{"rtt_ms":1e-7,"loss_rate":1e21,"jitter_ms":-0}}`,
		`{"metrics":{"rtt_ms":1E+2,"loss_rate":0.000001,"jitter_ms":123456789012345678901234567890}}`,
		`{"metrics":{"rtt_ms":01}}`, `{"metrics":{"rtt_ms":1.}}`, `{"metrics":{"rtt_ms":.5}}`, `{"metrics":{"rtt_ms":"1"}}`,
		`{"t_hours":999999999999999868928,"duration_sec":5e-324}`,
		`{"src":2147483647,"dst":-2147483648}`, `{"dst":-2147483649}`, `{"src":-0}`, `{"src":00}`, `{"src":true}`,
		// Duplicate, case-folded and unknown keys.
		`{"cands":[{"kind":"bounce","r1":3}],"cands":[{"r2":9}]}`, `{"src":1,"src":2}`,
		`{"Cands":[{"Kind":"bounce","R1":3}]}`, "{\"\u017frc\":1}", "{\"option\":{\"\u212aind\":\"direct\"}}",
		`{"src":1,"extra":{"deep":[1,2,{"x":null}]},"dst":2}`, `{"cands":[{"kind":"direct"},]}`, `{"cands":{}}`,
		// Trailing data.
		repairChooseRecord + " x", `{"t_hours":1}}`, `{"t_hours":1}` + "\n\n",
	} {
		f.Add([]byte(s), s, 0.0)
	}
	f.Fuzz(func(t *testing.T, data []byte, str string, x float64) {
		walChooseShape.Differential(t, data)
		walReportShape.Differential(t, data)
		opt := transport.WireOption{Kind: str, R2: 2}
		walChooseShape.SameBytes(t, walChoose{THours: x, Cands: []transport.WireOption{opt}, Repair: []string{str}})
		walReportShape.SameBytes(t, walReport{THours: x, Option: opt, Repair: str,
			Metrics: transport.WireMetrics{RTTMs: x, LossRate: -x, JitterMs: 1 / x}, DurationSec: x})
	})
}

// TestWALCodecCoversEveryField is the drift guard for the records:
// walcompat pins their tags, this pins what the codec does with them.
func TestWALCodecCoversEveryField(t *testing.T) {
	walChooseShape.EveryField(t)
	walReportShape.EveryField(t)
}

func TestWALCodecAllocs(t *testing.T) {
	var c walChoose
	var r walReport
	for _, d := range []struct {
		name string
		max  float64
		rec  string
		fn   func(data []byte) error
	}{
		{"walChoose", 1, legacyChooseRecord, func(b []byte) error { c = walChoose{}; return c.DecodeJSON(b) }},
		{"walReport", 0, legacyReportRecord, func(b []byte) error { r = walReport{}; return r.DecodeJSON(b) }},
	} {
		rec := []byte(d.rec)
		if got := testing.AllocsPerRun(200, func() {
			if err := d.fn(rec); err != nil {
				t.Fatal(err)
			}
		}); got > d.max {
			t.Errorf("%s decode: %v allocs, want at most %v", d.name, got, d.max)
		}
	}
	buf := make([]byte, 0, 512)
	for name, enc := range map[string]func([]byte) ([]byte, error){"walChoose": c.AppendJSON, "walReport": r.AppendJSON} {
		if got := testing.AllocsPerRun(200, func() {
			if _, err := enc(buf); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s encode: %v allocs, want 0", name, got)
		}
	}
}

// TestReplayIdenticalAcrossEncoders: one record sequence — the legacy and
// current record literals above, then a few hundred generated calls —
// written three ways replays through applyRecordLocked to byte-identical
// strategy state: as json.Marshal encodes it, as the hand-written encoder
// does (the same bytes), and indented with every string \u-escaped, which
// no scanner accepts, so that replay runs on the encoding/json fallback.
func TestReplayIdenticalAcrossEncoders(t *testing.T) {
	schemes := []string{"none", "nack", "red", "fec-4"}
	type record struct {
		typ wal.Type
		v   interface {
			AppendJSON([]byte) ([]byte, error)
		}
	}
	var seq []record
	for _, lit := range []string{legacyChooseRecord, repairChooseRecord} {
		var c walChoose
		if err := json.Unmarshal([]byte(lit), &c); err != nil {
			t.Fatal(err)
		}
		seq = append(seq, record{recChoose, c})
	}
	for _, lit := range []string{legacyReportRecord, repairReportRecord} {
		var r walReport
		if err := json.Unmarshal([]byte(lit), &r); err != nil {
			t.Fatal(err)
		}
		seq = append(seq, record{recReport, r})
	}
	cands := make([]transport.WireOption, len(testCands()))
	for i, o := range testCands() {
		cands[i] = transport.ToWireOption(o)
	}
	for i := 0; i < 300; i++ {
		th := 26 + 0.097*float64(i)
		src, dst := int32(3+i%4), int32(9+i%5)
		c := walChoose{THours: th, Src: src, Dst: dst, Cands: cands}
		r := walReport{THours: th, Src: src, Dst: dst, Option: cands[i%len(cands)],
			Metrics: transport.ToWireMetrics(synthMetrics(i, testCands()[i%len(cands)]))}
		if i%3 == 0 {
			c.Repair = schemes
			r.Repair, r.DurationSec = schemes[i%len(schemes)], 30+float64(i)/7
		}
		seq = append(seq, record{recChoose, c}, record{recReport, r})
	}

	replay := func(encode func(record) []byte) []byte {
		cfg := core.DefaultViaConfig(quality.Loss)
		cfg.RepairSchemes = schemes
		s := New(Config{Strategy: core.NewVia(cfg, nil)})
		if encode != nil {
			for i, rec := range seq {
				if err := s.applyRecordLocked(wal.Record{Type: rec.typ, Data: encode(rec)}); err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
			}
		}
		state, err := s.StrategyState()
		if err != nil {
			t.Fatal(err)
		}
		return state
	}
	std := func(rec record) []byte {
		data, err := json.Marshal(rec.v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := replay(std)
	if bytes.Equal(want, replay(nil)) {
		t.Fatal("the sequence left the strategy in its initial state; the comparison below would prove nothing")
	}
	if got := replay(func(rec record) []byte {
		data, err := rec.v.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, std(rec)) {
			t.Fatalf("AppendJSON %s\njson.Marshal %s", data, std(rec))
		}
		return data
	}); !bytes.Equal(got, want) {
		t.Error("records from the hand-written encoder replay to a different strategy state")
	}
	if got := replay(func(rec record) []byte {
		var out bytes.Buffer
		if err := json.Indent(&out, std(rec), "", "\t"); err != nil {
			t.Fatal(err)
		}
		// "kind" → "\u006bind": the same document to encoding/json.
		data := bytes.ReplaceAll(out.Bytes(), []byte(`"k`), []byte(`"\u006b`))
		if walChooseShape.Canonical(data) || walReportShape.Canonical(data) {
			t.Fatalf("the scanner accepts %s; this replay was meant for the fallback", data)
		}
		return data
	}); !bytes.Equal(got, want) {
		t.Error("records decoded by the encoding/json fallback replay to a different strategy state")
	}
}

// bigChooseBody is a well-formed choose request of at least n bytes.
func bigChooseBody(n int) []byte {
	const cand = `{"kind":"direct"},`
	return []byte(`{"src":1,"dst":2,"candidates":[` + strings.Repeat(cand, n/len(cand)+1) + `{"kind":"direct"}]}`)
}

// TestOversizedBodyRejected: every POST handler reads at most
// transport.MaxBodyBytes and answers 413 beyond it, with or without a
// declared Content-Length; a large body under the bound is still served.
func TestOversizedBodyRejected(t *testing.T) {
	strat := &recordingStrategy{ret: netsim.DirectOption()}
	s := New(Config{Strategy: strat})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(path string, body []byte, chunked bool) int {
		var rd io.Reader = bytes.NewReader(body)
		if chunked {
			rd = io.MultiReader(rd) // hides the length from net/http
		}
		resp, err := http.Post(ts.URL+path, "application/json", rd)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	big := bigChooseBody(2 << 20)
	for _, path := range []string{"/v1/choose", "/v1/report", "/v1/relays/register", "/v1/budget/merged"} {
		for _, chunked := range []bool{false, true} {
			if got := post(path, big, chunked); got != http.StatusRequestEntityTooLarge {
				t.Errorf("%s, 2 MiB, chunked=%v: status %d, want 413", path, chunked, got)
			}
		}
	}
	if len(strat.chooseCalls) != 0 {
		t.Fatalf("an oversized request reached the strategy")
	}
	ok := bigChooseBody(transport.MaxBodyBytes / 2)
	for _, chunked := range []bool{false, true} {
		if got := post("/v1/choose", ok, chunked); got != http.StatusOK {
			t.Errorf("/v1/choose, 512 KiB, chunked=%v: status %d, want 200", chunked, got)
		}
	}
}

// TestOlderClientServedIdentically: a client that still marshals with
// plain encoding/json — here from maps, so keys arrive sorted rather than
// in struct order, and indented — gets the bytes the current client gets,
// and the strategy is handed the same call.
func TestOlderClientServedIdentically(t *testing.T) {
	strat := &recordingStrategy{ret: netsim.TransitOption(1, 2)}
	s := New(Config{Strategy: strat})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(path string, body []byte) string {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d, %v: %s", path, body, resp.StatusCode, err, out)
		}
		return string(out)
	}
	older := func(v any) []byte {
		var m map[string]any
		data, err := json.Marshal(v)
		if err == nil {
			err = json.Unmarshal(data, &m)
		}
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(m, " ", "\t")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	choose := transport.ChooseRequest{Src: 7, Dst: 3, RepairCandidates: []string{"none", "nack"}}
	for _, o := range testCands() {
		choose.Candidates = append(choose.Candidates, transport.ToWireOption(o))
	}
	cur, err := json.Marshal(choose)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(cur, older(choose)) {
		t.Fatal("the older client's body is the current one; the test would prove nothing")
	}
	want := post("/v1/choose", cur)
	if got := post("/v1/choose", older(choose)); got != want || want != `{"option":{"kind":"transit","r1":1,"r2":2}}`+"\n" {
		t.Errorf("choose: older client got %q, current client %q", got, want)
	}
	if a, b := strat.chooseCands[0], strat.chooseCands[1]; len(a) != len(testCands()) || !equalOptions(a, b) ||
		strat.chooseCalls[0].Src != strat.chooseCalls[1].Src || strat.chooseCalls[0].Dst != strat.chooseCalls[1].Dst {
		t.Errorf("choose: strategy saw %v for the current client, %v for the older one", a, b)
	}

	report := transport.ReportRequest{Src: 7, Dst: 3, Option: transport.ToWireOption(netsim.BounceOption(2)),
		Metrics: transport.WireMetrics{RTTMs: 83.41926775, LossRate: 0.0125, JitterMs: 4.5}, Repair: "nack", DurationSec: 62.5}
	cur, err = json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	want = post("/v1/report", cur)
	if got := post("/v1/report", older(report)); got != want || want != `{"ok":true}`+"\n" {
		t.Errorf("report: older client got %q, current client %q", got, want)
	}
	if strat.observeOpts[0] != strat.observeOpts[1] || strat.observeM[0] != strat.observeM[1] ||
		strat.observeCalls[0].DurationSec != 62.5 || strat.observeCalls[1].DurationSec != 62.5 {
		t.Errorf("report: strategy saw %v %v, then %v %v", strat.observeOpts[0], strat.observeM[0], strat.observeOpts[1], strat.observeM[1])
	}
}

// TestCarriersLogIdenticalRecords: the same calls, sent by the Go client
// on the control stream (binary bodies) to one durable controller and as
// JSON POSTs to another, get the same answers and leave byte-identical
// WALs: the record is a function of the request, not of its carrier. A
// scheme name the log could not carry unchanged is refused on the stream.
func TestCarriersLogIdenticalRecords(t *testing.T) {
	schemes := []string{"none", "nack", "red", "fec-4"}
	open := func() (*Server, *httptest.Server, string) {
		cfg := core.DefaultViaConfig(quality.Loss)
		cfg.RepairSchemes = schemes
		dir := t.TempDir()
		clk := newFakeClock()
		s, err := Open(Config{Strategy: core.NewVia(cfg, nil), TimeScale: 3600, WALDir: dir,
			WALSyncInterval: -1, SnapshotEvery: -1, Clock: clk.Now})
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler()), dir
	}
	streamSrv, streamTS, streamDir := open()
	postSrv, postTS, postDir := open()
	c := NewClient(streamTS.URL)
	post := func(path string, body []byte) []byte {
		resp, err := http.Post(postTS.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s %s: status %d, %v: %s", path, body, resp.StatusCode, err, out)
		}
		return out
	}

	cands := testCands()
	wire := make([]transport.WireOption, len(cands))
	for i, o := range cands {
		wire[i] = transport.ToWireOption(o)
	}
	for i := 0; i < 40; i++ {
		src, dst := int32(3+i%4), int32(9+i%5)
		var offer []string
		if i%3 == 0 {
			offer = schemes
		}
		opt, scheme, err := c.ChooseWithRepair(src, dst, cands, offer)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(transport.ChooseRequest{Src: src, Dst: dst, Candidates: wire, RepairCandidates: offer})
		if err != nil {
			t.Fatal(err)
		}
		var resp transport.ChooseResponse
		if err := json.Unmarshal(post("/v1/choose", body), &resp); err != nil || resp.Option.Option() != opt || resp.Repair != scheme {
			t.Fatalf("call %d: the stream decided %v %q, the POST %+v (%v)", i, opt, scheme, resp, err)
		}
		m, dur := synthMetrics(i, opt), float64(i)/3
		if err := c.ReportRepair(src, dst, opt, scheme, dur, m); err != nil {
			t.Fatal(err)
		}
		body, err = json.Marshal(transport.ReportRequest{Src: src, Dst: dst, Option: transport.ToWireOption(opt),
			Metrics: transport.ToWireMetrics(m), Repair: scheme, DurationSec: dur})
		if err != nil {
			t.Fatal(err)
		}
		post("/v1/report", body)
	}
	// A scheme name that is not valid UTF-8 would be logged with U+FFFD in
	// place of each bad byte, so replay would call the bandit with another
	// name than the live call did: the stream refuses it and logs nothing.
	conn, br := rawStream(t, streamTS.URL)
	choose := chooseBody(t, cands...)
	choose = append(choose[:len(choose)-1], 2, 4, 'n', 'a', 'c', 'k', 1, 0xff)
	report := reportBody(t, cands[0], synthMetrics(0, cands[0]))
	report = append(report[:len(report)-1], 1, 0xfe)
	for op, body := range map[transport.Op][]byte{transport.OpChoose: choose, transport.OpReport: report} {
		if status, reply := exchangeRaw(t, conn, br, op, 3, 9, body); status != http.StatusBadRequest {
			t.Errorf("op %d naming a non-UTF-8 scheme: status %d %q, want 400", op, status, reply)
		}
	}

	records := func(s *Server, ts *httptest.Server, dir string) []wal.Record {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		l, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close() //vialint:ignore errwrap read-only test log
		var out []wal.Record
		if err := l.Replay(1, func(_ uint64, rec wal.Record) error {
			out = append(out, wal.Record{Type: rec.Type, Data: bytes.Clone(rec.Data)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := records(streamSrv, streamTS, streamDir), records(postSrv, postTS, postDir)
	if len(got) != 1+2*40 || len(got) != len(want) {
		t.Fatalf("the stream's log holds %d records, the POSTs' %d; want %d each", len(got), len(want), 1+2*40)
	}
	for i := range got {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d: the stream logged %d %s, the POSTs %d %s", i, got[i].Type, got[i].Data, want[i].Type, want[i].Data)
		}
	}
}

func equalOptions(a, b []netsim.Option) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
