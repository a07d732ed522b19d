package transport

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/transport/codectest"
)

func canonical[T any](scan func(*T, *JSONScanner)) func([]byte) bool {
	return func(data []byte) bool {
		var v T
		s := ScanJSON(data)
		scan(&v, &s)
		return s.End()
	}
}

// decoder is how a WAL record decodes an embedded wire type: the scanner,
// and encoding/json on anything outside the canonical grammar.
func decoder[T any](scan func(*T, *JSONScanner)) func(*T, []byte) error {
	return func(v *T, data []byte) error {
		s := ScanJSON(data)
		scan(v, &s)
		if s.End() {
			return nil
		}
		return UnmarshalStd(data, v)
	}
}

func scanWireOptions(v *[]WireOption, s *JSONScanner) { *v = ScanWireOptions(s) }
func scanString(v *string, s *JSONScanner)            { *v = s.String() }
func scanStrings(v *[]string, s *JSONScanner)         { *v = s.Strings() }

var (
	wireOptionShape = codectest.Shape[WireOption]{
		Decode:    decoder((*WireOption).ScanJSON),
		Append:    func(o WireOption, dst []byte) ([]byte, error) { return o.AppendJSON(dst), nil },
		Canonical: canonical((*WireOption).ScanJSON),
	}
	wireMetricsShape = codectest.Shape[WireMetrics]{
		Decode: decoder((*WireMetrics).ScanJSON), Append: WireMetrics.AppendJSON,
		Canonical: canonical((*WireMetrics).ScanJSON),
	}
	wireOptionsShape = codectest.Shape[[]WireOption]{
		Decode:    decoder(scanWireOptions),
		Append:    func(opts []WireOption, dst []byte) ([]byte, error) { return AppendWireOptions(dst, opts), nil },
		Canonical: canonical(scanWireOptions),
	}
	// The string primitives the records' repair fields are built from.
	stringShape = codectest.Shape[string]{
		Decode:    decoder(scanString),
		Append:    func(v string, dst []byte) ([]byte, error) { return AppendJSONString(dst, v), nil },
		Canonical: canonical(scanString),
	}
	stringsShape = codectest.Shape[[]string]{
		Decode:    decoder(scanStrings),
		Append:    func(v []string, dst []byte) ([]byte, error) { return AppendJSONStrings(dst, v), nil },
		Canonical: canonical(scanStrings),
	}
)

// Real bodies: the call-path benchmark's choose and report as POST bodies,
// and the wire values they carry.
const (
	benchChooseBody = `{"src":17,"dst":4,"candidates":[{"kind":"direct"},{"kind":"bounce","r1":3},{"kind":"bounce","r1":11},{"kind":"transit","r1":3,"r2":11},{"kind":"transit","r1":11,"r2":3},{"kind":"bounce","r1":7}]}`
	benchReportBody = `{"src":17,"dst":4,"option":{"kind":"bounce","r1":3},"metrics":{"rtt_ms":83.41926775,"loss_rate":0.0123,"jitter_ms":4.5}}`
	benchOptions    = `[{"kind":"direct"},{"kind":"bounce","r1":3},{"kind":"bounce","r1":11},{"kind":"transit","r1":3,"r2":11},{"kind":"transit","r1":11,"r2":3},{"kind":"bounce","r1":7}]`
	benchOption     = `{"kind":"transit","r1":3,"r2":11}`
	benchMetricsDoc = `{"rtt_ms":83.41926775,"loss_rate":0.0123,"jitter_ms":4.5}`
)

// codecSeeds are the inputs the identity contract is most likely to break
// on, each tried against every shape.
var codecSeeds = []string{
	benchOptions, benchOption, benchMetricsDoc, `{"kind":"bounce","r1":3}`,
	// An older encoder: keys reordered, whitespace.
	"[ { \"r1\" : 3 , \"kind\" : \"bounce\" } ,\n\t{\"kind\":\"direct\"} ]",
	`{"jitter_ms":4.5,"loss_rate":0.0123,"rtt_ms":83.4}`, `{"r1":3,"kind":"bounce"}`, " {\r\n \"kind\" : \"direct\" } ",
	// Strings: escapes, HTML-sensitive bytes, separators, invalid UTF-8.
	`{"kind":"a<b&c>d"}`, `{"kind":"q\"\\\/\b\f\n\r\t"}`,
	"{\"kind\":\"\u2028\u2029\u00e9\"}", "{\"kind\":\"\xff\xc0\xaf\"}",
	`{"kind":"\ud800"}`, `{"kind":"\ud83d\ude00"}`,
	"{\"kind\":\"tab\there\"}", `{"kind":"\x"}`, `{"kind":"unterminated`,
	`[{"kind":"a<b&c>d"},{"kind":"\u0062ounce","r1":1}]`,
	`"fec-4"`, `["none","nack","red","fec-4"]`, `["a<b&c>",""]`, "[\"\u2028\", \"\xff\"]", `["\u006eack"]`, `["a",null]`, `["a",]`, `["a" "b"]`,
	// Numbers.
	`{"rtt_ms":1e-7,"loss_rate":1e21,"jitter_ms":-0}`,
	`{"rtt_ms":1E+2,"loss_rate":0.000001,"jitter_ms":123456789012345678901234567890}`,
	`{"rtt_ms":1e400}`, `{"rtt_ms":01}`, `{"rtt_ms":1.}`, `{"rtt_ms":.5}`, `{"rtt_ms":-}`, `{"rtt_ms":1e}`, `{"rtt_ms":"1"}`,
	`{"rtt_ms":0.0,"loss_rate":-0.0,"jitter_ms":1e-6}`, `{"rtt_ms":999999999999999868928}`,
	`{"rtt_ms":5e-324,"loss_rate":1.7976931348623157e308}`,
	`{"kind":"bounce","r1":2147483647,"r2":-2147483648}`, `{"r1":2147483648}`, `{"r2":-2147483649}`,
	`{"r1":1.0}`, `{"r1":1e2}`, `{"r1":-0}`, `{"r1":00}`, `{"r1":99999999999999999999}`, `{"r1":true}`, `{"r2":0}`,
	// null, empty and broken containers.
	`null`, `{}`, ` {} `, `[]`, `[ ]`, `7`, `"s"`, ``, ` `, `{`, `{"kind"`, `{"kind":`, `{"kind":"direct"`,
	`{"kind":"direct",`, `{"kind":"direct",}`, `{,}`, `[null]`, `[{"kind":"direct"},null]`, `{"kind":null}`, `{"rtt_ms":null}`,
	// Duplicate, case-folded, unknown and nested-unknown keys.
	`{"kind":"bounce","r1":3,"kind":"transit"}`, `{"r1":3,"r1":9}`, `{"rtt_ms":1,"rtt_ms":2}`,
	`{"KIND":"direct","R1":3}`, `{"kind":"direct","Kind":"bounce"}`, `{"RTT_MS":1,"Loss_Rate":2}`,
	`{"kind":"direct","extra":{"deep":[1,2,{"x":null}]},"r1":2}`, `{"kind":"direct","hop":1}`,
	"{\"\u212aind\":\"direct\"}", "{\"rtt_m\u017f\":1}", `{"":1}`,
	// Trailing data.
	benchOption + `{}`, `{"kind":"direct"} x`, `{"kind":"direct"}}`, `{"rtt_ms":1}` + "\n\n",
	`[{"kind":"direct"},]`, `[,]`, `{"kind":"direct"}]`, `[{"kind":"direct"}`, `{"kind":tru}`,
	`{"rtt_ms":1,"loss_rate":2,"jitter_ms":3,"x":true}`, `[{"kind":"transit","r1":3,"r2":11},{"kind":"transit","r1":11,"r2":3}]`,
}

// FuzzControlCodec is the identity contract's proof for the wire types the
// WAL records embed and the string primitives: on arbitrary bytes each
// decoder is encoding/json (value and verdict), on every decoded value each
// encoder is json.Marshal (bytes), and on values no decode can produce —
// raw strings, any float — the encoders still are. Skip, the ring gate's
// way past a member it has no field for, accepts only JSON.
func FuzzControlCodec(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s), s, 0.0)
	}
	for _, x := range []float64{1e-7, 1e21, 1e-6, 999999999999999868928, math.Copysign(0, -1), math.NaN(), math.Inf(-1), math.MaxFloat64, 5e-324} {
		f.Add([]byte(benchMetricsDoc), "fec-4", x)
	}
	f.Fuzz(func(t *testing.T, data []byte, str string, x float64) {
		wireOptionShape.Differential(t, data)
		wireMetricsShape.Differential(t, data)
		wireOptionsShape.Differential(t, data)
		stringShape.Differential(t, data)
		stringsShape.Differential(t, data)
		skipped := ScanJSON(data)
		if skipped.Skip(); skipped.End() && !json.Valid(data) {
			t.Fatalf("Skip accepts %q, which json.Valid rejects", data)
		}

		wireOptionsShape.SameBytes(t, []WireOption{{Kind: str, R1: 1}, {Kind: "direct"}})
		stringsShape.SameBytes(t, []string{str, ""})
		wireMetricsShape.SameBytes(t, WireMetrics{RTTMs: x, LossRate: -x, JitterMs: 1 / x})
	})
}

// TestCodecCoversEveryField is the drift guard (walcompat pins struct
// tags, not what a hand-written codec does with them).
func TestCodecCoversEveryField(t *testing.T) {
	wireOptionShape.EveryField(t)
	wireMetricsShape.EveryField(t)
	wireOptionsShape.EveryField(t)
}

// TestCodecAllocs holds the codec to the allocation bars it was written
// for: encoding into a buffer with room allocates nothing, and decoding
// allocates only what the value must own.
func TestCodecAllocs(t *testing.T) {
	var opt WireOption
	var m WireMetrics
	var opts []WireOption
	var s JSONScanner
	for _, d := range []struct {
		name string
		max  float64
		doc  string
		scan func()
	}{
		{"WireOption", 0, benchOption, func() { opt = WireOption{}; opt.ScanJSON(&s) }},
		{"WireMetrics", 0, benchMetricsDoc, func() { m = WireMetrics{}; m.ScanJSON(&s) }},
		{"[]WireOption", 1, benchOptions, func() { opts = ScanWireOptions(&s) }},
	} {
		doc := []byte(d.doc)
		if got := testing.AllocsPerRun(200, func() {
			s = ScanJSON(doc)
			if d.scan(); !s.End() {
				t.Fatalf("%s: %s is outside the canonical grammar", d.name, doc)
			}
		}); got > d.max {
			t.Errorf("%s decode: %v allocs, want at most %v", d.name, got, d.max)
		}
	}
	if len(opts) != 6 || m.RTTMs != 83.41926775 || opt.R2 != 11 {
		t.Fatalf("decoded %+v %+v %+v", opt, m, opts)
	}
	buf := make([]byte, 0, 512)
	for name, enc := range map[string]func() error{
		"WireOption":   func() error { opt.AppendJSON(buf); return nil },
		"WireMetrics":  func() (err error) { _, err = m.AppendJSON(buf); return err },
		"[]WireOption": func() error { AppendWireOptions(buf, opts); return nil },
	} {
		if got := testing.AllocsPerRun(200, func() {
			if err := enc(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s encode: %v allocs, want 0", name, got)
		}
	}
}

// TestReadRequestBounds: a body within MaxBodyBytes is read whole, with or
// without a Content-Length; one byte more is a 413.
func TestReadRequestBounds(t *testing.T) {
	for _, tc := range []struct {
		size    int
		chunked bool
		status  int
	}{
		{0, false, 200}, {100, false, 200}, {100, true, 200}, {MaxBodyBytes, false, 200}, {MaxBodyBytes, true, 200},
		{MaxBodyBytes + 1, false, http.StatusRequestEntityTooLarge}, {MaxBodyBytes + 1, true, http.StatusRequestEntityTooLarge},
	} {
		body := strings.Repeat("x", tc.size)
		r := httptest.NewRequest(http.MethodPost, "/v1/choose", strings.NewReader(body))
		if tc.chunked {
			r.ContentLength = -1
		}
		w := httptest.NewRecorder()
		buf := ReadRequest(w, r)
		if w.Code != tc.status || (buf != nil) != (tc.status == 200) {
			t.Fatalf("size %d chunked %v: status %d, buffer %v", tc.size, tc.chunked, w.Code, buf != nil)
		}
		if buf != nil {
			if !bytes.Equal(buf.B, []byte(body)) {
				t.Fatalf("size %d chunked %v: read %d bytes", tc.size, tc.chunked, len(buf.B))
			}
			buf.Release()
		}
	}
}

var (
	benchSinkBytes []byte
	benchSinkErr   error
)

// benchDecode times one body through encoding/json as the POST handlers
// read it ("std").
func benchDecode(b *testing.B, body string, std func(io.Reader) error) {
	data := []byte(body)
	b.Run("std", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSinkErr = std(bytes.NewReader(data))
		}
	})
}

// benchEncode times the value body decodes to through json.Marshal ("std").
func benchEncode[T any](b *testing.B, body string) {
	var v T
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		b.Fatal(err)
	}
	b.Run("std", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSinkBytes, benchSinkErr = json.Marshal(v)
		}
	})
}

// benchV2 times fn, the same request's via-control/2 body through the
// binary codec ("v2").
func benchV2(b *testing.B, fn func() error) {
	b.Run("v2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSinkErr = fn()
		}
	})
}

// The Benchmark*Codec pairs reproduce the binary body's speed-up over
// encoding/json on the benchmark's own requests: go test -bench Codec.
func BenchmarkChooseRequestDecodeCodec(b *testing.B) {
	benchDecode(b, benchChooseBody,
		func(r io.Reader) error { var v ChooseRequest; return json.NewDecoder(r).Decode(&v) })
	body := mustBody(b)(AppendChoose(nil, benchCands, nil))
	benchV2(b, func() error { var v ChooseMsg; return v.DecodeBinary(body) })
}

func BenchmarkChooseRequestEncodeCodec(b *testing.B) {
	benchEncode[ChooseRequest](b, benchChooseBody)
	buf := make([]byte, 0, 512)
	benchV2(b, func() (err error) { benchSinkBytes, err = AppendChoose(buf, benchCands, nil); return err })
}

func BenchmarkReportRequestDecodeCodec(b *testing.B) {
	benchDecode(b, benchReportBody,
		func(r io.Reader) error { var v ReportRequest; return json.NewDecoder(r).Decode(&v) })
	body := mustBody(b)(AppendReport(nil, benchCands[1], benchMetrics, 0, ""))
	benchV2(b, func() error { var v ReportMsg; return v.DecodeBinary(body) })
}

func BenchmarkReportRequestEncodeCodec(b *testing.B) {
	benchEncode[ReportRequest](b, benchReportBody)
	buf := make([]byte, 0, 512)
	benchV2(b, func() (err error) {
		benchSinkBytes, err = AppendReport(buf, benchCands[1], benchMetrics, 0, "")
		return err
	})
}
