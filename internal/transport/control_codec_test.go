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

var (
	chooseRequestShape = codectest.Shape[ChooseRequest]{
		Decode: (*ChooseRequest).DecodeJSON, Append: ChooseRequest.AppendJSON,
		Canonical: canonical((*ChooseRequest).scanJSON),
	}
	chooseResponseShape = codectest.Shape[ChooseResponse]{
		Decode: (*ChooseResponse).DecodeJSON, Append: ChooseResponse.AppendJSON,
		Canonical: canonical((*ChooseResponse).scanJSON),
	}
	reportRequestShape = codectest.Shape[ReportRequest]{
		Decode: (*ReportRequest).DecodeJSON, Append: ReportRequest.AppendJSON,
		Canonical: canonical((*ReportRequest).scanJSON),
	}
	reportResponseShape = codectest.Shape[ReportResponse]{
		Decode: (*ReportResponse).DecodeJSON, Append: ReportResponse.AppendJSON,
		Canonical: canonical((*ReportResponse).scanJSON),
	}
)

// Real bodies: what the call-path benchmark's client and controller send.
const (
	benchChooseBody = `{"src":17,"dst":4,"candidates":[{"kind":"direct"},{"kind":"bounce","r1":3},{"kind":"bounce","r1":11},{"kind":"transit","r1":3,"r2":11},{"kind":"transit","r1":11,"r2":3},{"kind":"bounce","r1":7}]}`
	benchChooseResp = `{"option":{"kind":"transit","r1":3,"r2":11}}` + "\n"
	benchReportBody = `{"src":17,"dst":4,"option":{"kind":"bounce","r1":3},"metrics":{"rtt_ms":83.41926775,"loss_rate":0.0123,"jitter_ms":4.5}}`
	benchReportResp = `{"ok":true}` + "\n"
)

// codecSeeds are the inputs the identity contract is most likely to break
// on, each tried against every shape.
var codecSeeds = []string{
	benchChooseBody, benchChooseResp, benchReportBody, benchReportResp,
	// An older client: encoding/json output, keys reordered, whitespace.
	"{ \"candidates\" : [ { \"r1\" : 3 , \"kind\" : \"bounce\" } ,\n\t{\"kind\":\"direct\"} ] ,\r\n \"dst\" : 4 , \"src\" : 17 }",
	`{"metrics":{"jitter_ms":4.5,"loss_rate":0.0123,"rtt_ms":83.4},"option":{"r1":3,"kind":"bounce"},"dst":4,"src":17}`,
	`{"src":1,"dst":2,"candidates":[{"kind":"direct"}],"repair_candidates":["none","nack","fec-4"]}`,
	`{"src":1,"dst":2,"option":{"kind":"direct"},"metrics":{"rtt_ms":1,"loss_rate":0,"jitter_ms":0},"repair":"nack","duration_sec":62.5}`,
	`{"option":{"kind":"direct"},"repair":"red"}`,
	// Strings: escapes, HTML-sensitive bytes, separators, invalid UTF-8.
	`{"option":{"kind":"direct"},"repair":"fec-4"}`,
	`{"option":{"kind":"a<b&c>d"},"repair":"q\"\\\/\b\f\n\r\t"}`,
	"{\"option\":{\"kind\":\"\u2028\u2029\u00e9\"},\"repair\":\"\xff\xc0\xaf\"}",
	`{"option":{"kind":"\ud800"},"repair":"\ud83d\ude00"}`,
	"{\"repair\":\"tab\there\"}", `{"repair":"\x"}`, `{"repair":"unterminated`,
	// Numbers.
	`{"metrics":{"rtt_ms":1e-7,"loss_rate":1e21,"jitter_ms":-0}}`,
	`{"metrics":{"rtt_ms":1E+2,"loss_rate":0.000001,"jitter_ms":123456789012345678901234567890}}`,
	`{"metrics":{"rtt_ms":1e400}}`, `{"metrics":{"rtt_ms":01}}`, `{"metrics":{"rtt_ms":1.}}`,
	`{"metrics":{"rtt_ms":.5}}`, `{"metrics":{"rtt_ms":-}}`, `{"metrics":{"rtt_ms":1e}}`, `{"metrics":{"rtt_ms":"1"}}`,
	`{"src":2147483647,"dst":-2147483648}`, `{"src":2147483648}`, `{"dst":-2147483649}`,
	`{"src":1.0}`, `{"src":1e2}`, `{"src":-0}`, `{"src":00}`, `{"src":99999999999999999999}`, `{"src":true}`,
	`{"duration_sec":-0}`, `{"duration_sec":0.0}`,
	// null, empty and merged containers.
	`{"src":1,"dst":2,"candidates":null}`, `{"src":1,"dst":2,"candidates":[]}`, `{"candidates":[ ]}`,
	`{"repair_candidates":[]}`, `{"repair_candidates":null}`, `{"repair_candidates":["a",null]}`,
	`null`, `{}`, ` {} `, `[]`, `7`, `"s"`, ``, ` `, `{`, `{"src"`, `{"src":`, `{"src":1`, `{"src":1,`, `{"src":1,}`, `{,}`,
	`{"option":{"kind":"bounce","r1":3},"option":{"r2":9}}`,
	`{"candidates":[{"kind":"bounce","r1":3}],"candidates":[{"r2":9}]}`,
	`{"src":1,"src":2}`, `{"ok":true,"ok":false}`,
	// Case-folded, unknown and nested-unknown keys.
	`{"SRC":1,"Dst":2}`, `{"src":1,"SRC":2}`, `{"Ok":true}`, `{"option":{"Kind":"bounce","R1":3}}`,
	`{"src":1,"extra":{"deep":[1,2,{"x":null}]},"dst":2}`, `{"option":{"kind":"direct","hop":1}}`,
	"{\"\u017frc\":1}", `{"":1}`,
	// Trailing data.
	benchReportResp + `{}`, `{"ok":true} x`, `{"ok":true}}`, `{"ok":tru}`, `{"ok":truex}`, `{"ok":false}` + "\n\n",
	`{"ok":1}`, `{"ok":"true"}`, `{"candidates":[{"kind":"direct"},]}`, `{"candidates":[,]}`, `{"candidates":{}}`,
}

// FuzzControlCodec is the identity contract's proof for the four hot
// control messages: on arbitrary bytes each decoder is
// encoding/json (value and verdict), on every decoded value each encoder
// is json.Marshal (bytes), and on values no decode can produce — raw
// strings, any float — the encoders still are.
func FuzzControlCodec(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s), s, 0.0)
	}
	for _, x := range []float64{1e-7, 1e21, 1e-6, 999999999999999868928, math.Copysign(0, -1), math.NaN(), math.Inf(-1), math.MaxFloat64, 5e-324} {
		f.Add([]byte(benchReportBody), "fec-4", x)
	}
	f.Fuzz(func(t *testing.T, data []byte, str string, x float64) {
		chooseRequestShape.Differential(t, data)
		chooseResponseShape.Differential(t, data)
		reportRequestShape.Differential(t, data)
		reportResponseShape.Differential(t, data)

		opt := WireOption{Kind: str, R1: 1}
		chooseRequestShape.SameBytes(t, ChooseRequest{Candidates: []WireOption{opt}, RepairCandidates: []string{str, ""}})
		chooseResponseShape.SameBytes(t, ChooseResponse{Option: opt, Repair: str})
		reportRequestShape.SameBytes(t, ReportRequest{Option: opt, Repair: str,
			Metrics: WireMetrics{RTTMs: x, LossRate: -x, JitterMs: 1 / x}, DurationSec: x})
	})
}

// TestCodecCoversEveryField is the drift guard (walcompat pins struct
// tags, not what a hand-written codec does with them).
func TestCodecCoversEveryField(t *testing.T) {
	chooseRequestShape.EveryField(t)
	chooseResponseShape.EveryField(t)
	reportRequestShape.EveryField(t)
	reportResponseShape.EveryField(t)
}

// TestCodecAllocs holds the codec to the allocation bars it was written
// for: encoding into a buffer with room allocates nothing, and decoding
// allocates only what the value must own.
func TestCodecAllocs(t *testing.T) {
	var chooseReq ChooseRequest
	var chooseResp ChooseResponse
	var reportReq ReportRequest
	var reportResp ReportResponse
	for _, d := range []struct {
		name string
		max  float64
		body string
		fn   func(data []byte) error
	}{
		{"ChooseRequest", 1, benchChooseBody, func(b []byte) error { chooseReq = ChooseRequest{}; return chooseReq.DecodeJSON(b) }},
		{"ChooseResponse", 0, benchChooseResp, func(b []byte) error { chooseResp = ChooseResponse{}; return chooseResp.DecodeJSON(b) }},
		{"ReportRequest", 0, benchReportBody, func(b []byte) error { reportReq = ReportRequest{}; return reportReq.DecodeJSON(b) }},
		{"ReportResponse", 0, benchReportResp, func(b []byte) error { reportResp = ReportResponse{}; return reportResp.DecodeJSON(b) }},
	} {
		body := []byte(d.body)
		if got := testing.AllocsPerRun(200, func() {
			if err := d.fn(body); err != nil {
				t.Fatal(err)
			}
		}); got > d.max {
			t.Errorf("%s decode: %v allocs, want at most %v", d.name, got, d.max)
		}
	}
	if len(chooseReq.Candidates) != 6 || reportReq.Metrics.RTTMs != 83.41926775 || !reportResp.OK || chooseResp.Option.R2 != 11 {
		t.Fatalf("decoded %+v %+v %+v %+v", chooseReq, chooseResp, reportReq, reportResp)
	}
	buf := make([]byte, 0, 512)
	for name, enc := range map[string]func([]byte) ([]byte, error){
		"ChooseRequest": chooseReq.AppendJSON, "ChooseResponse": chooseResp.AppendJSON,
		"ReportRequest": reportReq.AppendJSON, "ReportResponse": reportResp.AppendJSON,
	} {
		if got := testing.AllocsPerRun(200, func() {
			if _, err := enc(buf); err != nil {
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

// benchDecode times one body through encoding/json as the handlers used it
// ("std") and through the codec ("new"). The decoders are passed in, each
// declaring its own value: through a type parameter the value would escape
// and the codec would be charged an allocation it does not make.
func benchDecode(b *testing.B, body string, std func(io.Reader) error, codec func([]byte) error) {
	data := []byte(body)
	b.Run("std", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSinkErr = std(bytes.NewReader(data))
		}
	})
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSinkErr = codec(data)
		}
	})
}

// benchEncode times the value body decodes to through json.Marshal ("std")
// and through the codec into a buffer with room ("new").
func benchEncode[T interface {
	AppendJSON([]byte) ([]byte, error)
}](b *testing.B, body string) {
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
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 512)
		for i := 0; i < b.N; i++ {
			benchSinkBytes, benchSinkErr = v.AppendJSON(buf)
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

// The Benchmark*Codec triples reproduce the codec's speed-up over
// encoding/json, and the binary body's over both, on the benchmark's own
// requests: go test -bench Codec.
func BenchmarkChooseRequestDecodeCodec(b *testing.B) {
	benchDecode(b, benchChooseBody,
		func(r io.Reader) error { var v ChooseRequest; return json.NewDecoder(r).Decode(&v) },
		func(d []byte) error { var v ChooseRequest; return v.DecodeJSON(d) })
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
		func(r io.Reader) error { var v ReportRequest; return json.NewDecoder(r).Decode(&v) },
		func(d []byte) error { var v ReportRequest; return v.DecodeJSON(d) })
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
