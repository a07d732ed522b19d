package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"unicode/utf8"

	"repro/internal/netsim"
	"repro/internal/quality"
)

// benchCands and benchMetrics are what benchChooseBody and benchReportBody
// carry, for the same requests on via-control/2.
var (
	benchCands = []netsim.Option{
		netsim.DirectOption(), netsim.BounceOption(3), netsim.BounceOption(11),
		netsim.TransitOption(3, 11), netsim.TransitOption(11, 3), netsim.BounceOption(7),
	}
	benchMetrics = quality.Metrics{RTTMs: 83.41926775, LossRate: 0.0123, JitterMs: 4.5}
)

// mustBody returns an encoder's body, failing tb on its error:
// mustBody(t)(AppendChoose(...)).
func mustBody(tb testing.TB) func([]byte, error) []byte {
	return func(b []byte, err error) []byte {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
}

// floatsEqual compares floats bit for bit: the body carries bits, and
// -0 must come back as -0.
func floatsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func reportFloats(m ReportMsg) []float64 {
	return []float64{m.Metrics.RTTMs, m.Metrics.LossRate, m.Metrics.JitterMs, m.DurationSec}
}

// TestControlBinaryRoundTrip: the benchmark's own request and answer
// decode to what was encoded, and the layout is the documented one.
func TestControlBinaryRoundTrip(t *testing.T) {
	body := mustBody(t)(AppendChoose(nil, benchCands, []string{"none", "fec-4"}))
	if len(body) != 2+len(benchCands)*optionLen+1+5+6 {
		t.Fatalf("choose body is %d bytes", len(body))
	}
	var c ChooseMsg
	if err := c.DecodeBinary(body); err != nil || !slices.Equal(c.Candidates, benchCands) || !slices.Equal(c.Repair, []string{"none", "fec-4"}) {
		t.Fatalf("choose: %+v, %v", c, err)
	}
	body = mustBody(t)(AppendReport(nil, netsim.BounceOption(3), benchMetrics, 62.5, "nack"))
	var r ReportMsg
	if err := r.DecodeBinary(body); err != nil || r.Option != netsim.BounceOption(3) || r.Metrics != benchMetrics || r.DurationSec != 62.5 || r.Repair != "nack" {
		t.Fatalf("report: %+v, %v", r, err)
	}
	body = mustBody(t)(AppendDecision(nil, netsim.TransitOption(3, 11), ""))
	var d Decision
	if err := d.DecodeBinary(body); err != nil || d.Option != netsim.TransitOption(3, 11) || d.Repair != "" {
		t.Fatalf("decision: %+v, %v", d, err)
	}
	if want := []byte{2, 0, 0, 0, 3, 0, 0, 0, 11, 0}; !bytes.Equal(body, want) {
		t.Fatalf("decision bytes % x, want % x", body, want)
	}
}

// TestControlBinaryRefuses: the encoders refuse what a body cannot carry
// and the decoders what no encoder writes — each length is checked, and an
// option must be canonical.
func TestControlBinaryRefuses(t *testing.T) {
	long := string(make([]byte, 256))
	for name, encode := range map[string]func() ([]byte, error){
		"unknown kind": func() ([]byte, error) { return AppendChoose(nil, []netsim.Option{{Kind: 3}}, nil) },
		"NaN metric": func() ([]byte, error) {
			return AppendReport(nil, netsim.DirectOption(), quality.Metrics{RTTMs: math.NaN()}, 0, "")
		},
		"infinite duration": func() ([]byte, error) {
			return AppendReport(nil, netsim.DirectOption(), quality.Metrics{}, math.Inf(1), "")
		},
		"256-byte scheme":  func() ([]byte, error) { return AppendDecision(nil, netsim.DirectOption(), long) },
		"non-UTF-8 scheme": func() ([]byte, error) { return AppendChoose(nil, nil, []string{"nack", "\xff"}) },
		"non-UTF-8 report scheme": func() ([]byte, error) {
			return AppendReport(nil, netsim.DirectOption(), quality.Metrics{}, 0, "fec\xfe")
		},
		"256 schemes":      func() ([]byte, error) { return AppendChoose(nil, nil, make([]string, 256)) },
		"65536 candidates": func() ([]byte, error) { return AppendChoose(nil, make([]netsim.Option, 65536), nil) },
	} {
		if _, err := encode(); err == nil {
			t.Errorf("encoding a %s succeeded", name)
		}
	}
	// The encoder writes an option as the constructors build it.
	if body := mustBody(t)(AppendDecision(nil, netsim.Option{}, "")); !bytes.Equal(body, mustBody(t)(AppendDecision(nil, netsim.DirectOption(), ""))) {
		t.Errorf("a zero Option encodes as % x, want the direct option", body)
	}

	option := func(kind byte, r1, r2 int32) []byte {
		b := []byte{kind}
		b = binary.BigEndian.AppendUint32(b, uint32(r1))
		return binary.BigEndian.AppendUint32(b, uint32(r2))
	}
	decision := func(opt []byte, rest ...byte) []byte { return append(append([]byte(nil), opt...), rest...) }
	for name, body := range map[string][]byte{
		"empty":                    nil,
		"cut inside the option":    option(0, -1, -1)[:5],
		"no scheme length":         option(0, -1, -1),
		"scheme cut short":         decision(option(0, -1, -1), 3, 'r', 'e'),
		"trailing byte":            decision(option(0, -1, -1), 0, 0),
		"unknown kind":             decision(option(3, -1, -1), 0),
		"direct with a relay":      decision(option(0, 4, -1), 0),
		"bounce with an r2":        decision(option(1, 4, 5), 0),
		"transit through one node": decision(option(2, 4, 4), 0),
		"non-UTF-8 scheme":         decision(option(0, -1, -1), 1, 0xff),
	} {
		var d Decision
		if err := d.DecodeBinary(body); err == nil {
			t.Errorf("decision %s (% x) decoded to %+v", name, body, d)
		}
	}
	for name, body := range map[string][]byte{
		"count beyond the body": {0xff, 0xff, 0},
		"names beyond the body": append([]byte{0, 0, 200}, 1, 'x'),
		"missing name count":    {0, 0},
		"non-UTF-8 scheme":      {0, 0, 2, 1, 0xff, 1, 0xfe},
	} {
		var c ChooseMsg
		if err := c.DecodeBinary(body); err == nil {
			t.Errorf("choose %s decoded to %+v", name, c)
		}
	}
	nan := decision(option(0, -1, -1), binary.BigEndian.AppendUint64(nil, math.Float64bits(math.NaN()))...)
	nan = append(nan, make([]byte, 8*3+1)...)
	var r ReportMsg
	if err := r.DecodeBinary(nan); err == nil {
		t.Errorf("a report with a NaN rtt decoded to %+v", r)
	}
}

// TestControlBinaryAllocs: a client encodes into a buffer with room without
// allocating, and a server decode allocates at most the candidate slice.
func TestControlBinaryAllocs(t *testing.T) {
	buf := make([]byte, 0, 512)
	for name, enc := range map[string]func() ([]byte, error){
		"choose":   func() ([]byte, error) { return AppendChoose(buf, benchCands, []string{"nack"}) },
		"report":   func() ([]byte, error) { return AppendReport(buf, benchCands[3], benchMetrics, 62.5, "fec-4") },
		"decision": func() ([]byte, error) { return AppendDecision(buf, benchCands[3], "red") },
	} {
		if got := testing.AllocsPerRun(200, func() {
			if _, err := enc(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s encode: %v allocs, want 0", name, got)
		}
	}
	chooseBody := mustBody(t)(AppendChoose(nil, benchCands, nil))
	reportBody := mustBody(t)(AppendReport(nil, benchCands[3], benchMetrics, 0, "nack"))
	decisionBody := mustBody(t)(AppendDecision(nil, benchCands[3], "fec-4"))
	var c ChooseMsg
	var r ReportMsg
	var d Decision
	for _, tc := range []struct {
		name string
		max  float64
		fn   func() error
	}{
		{"choose", 1, func() error { return c.DecodeBinary(chooseBody) }},
		{"report", 0, func() error { return r.DecodeBinary(reportBody) }},
		{"decision", 0, func() error { return d.DecodeBinary(decisionBody) }},
	} {
		if got := testing.AllocsPerRun(200, func() {
			if err := tc.fn(); err != nil {
				t.Fatal(err)
			}
		}); got > tc.max {
			t.Errorf("%s decode: %v allocs, want at most %v", tc.name, got, tc.max)
		}
	}
}

// gen draws values from fuzz bytes; past the end it reads zeros.
type gen struct{ b []byte }

func (g *gen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	v := g.b[0]
	g.b = g.b[1:]
	return v
}

func (g *gen) u32() uint32 {
	return uint32(g.byte())<<24 | uint32(g.byte())<<16 | uint32(g.byte())<<8 | uint32(g.byte())
}

func (g *gen) float() float64 { return math.Float64frombits(uint64(g.u32())<<32 | uint64(g.u32())) }

func (g *gen) option() netsim.Option {
	r1, r2 := netsim.RelayID(int32(g.u32())), netsim.RelayID(int32(g.u32()))
	switch g.byte() % 3 {
	case 0:
		return netsim.DirectOption()
	case 1:
		return netsim.BounceOption(r1)
	}
	return netsim.TransitOption(r1, r2)
}

func (g *gen) name() string {
	n := int(g.byte() % 8)
	s := make([]byte, n)
	for i := range s {
		s[i] = g.byte()
	}
	return string(s)
}

func invalidUTF8(s string) bool { return !utf8.ValidString(s) }

// FuzzControlBinary holds the via-control/2 bodies to their contract:
// on arbitrary bytes no decoder panics and every body a decoder accepts
// re-encodes to the same bytes; and every value drawn from the bytes that
// an encoder accepts decodes back to itself.
func FuzzControlBinary(f *testing.F) {
	f.Add(mustBody(f)(AppendChoose(nil, benchCands, []string{"none", "nack", "fec-4"})))
	f.Add(mustBody(f)(AppendReport(nil, netsim.TransitOption(3, 11), benchMetrics, 62.5, "red")))
	f.Add(mustBody(f)(AppendDecision(nil, netsim.BounceOption(7), "")))
	f.Add([]byte{0, 1, 1, 0, 0, 0, 5, 0xff, 0xff, 0xff, 0xff, 1, 0})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var c ChooseMsg
		if c.DecodeBinary(data) == nil {
			if got, err := AppendChoose(nil, c.Candidates, c.Repair); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("choose % x decoded to %+v, which re-encodes to % x, %v", data, c, got, err)
			}
		}
		var r ReportMsg
		if r.DecodeBinary(data) == nil {
			if got, err := AppendReport(nil, r.Option, r.Metrics, r.DurationSec, r.Repair); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("report % x decoded to %+v, which re-encodes to % x, %v", data, r, got, err)
			}
		}
		var d Decision
		if d.DecodeBinary(data) == nil {
			if got, err := AppendDecision(nil, d.Option, d.Repair); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("decision % x decoded to %+v, which re-encodes to % x, %v", data, d, got, err)
			}
		}

		g := gen{data}
		var want ChooseMsg
		for n := g.byte() % 8; n > 0; n-- {
			want.Candidates = append(want.Candidates, g.option())
		}
		for n := g.byte() % 4; n > 0; n-- {
			want.Repair = append(want.Repair, g.name())
		}
		body, err := AppendChoose(nil, want.Candidates, want.Repair)
		if (err == nil) != !slices.ContainsFunc(want.Repair, invalidUTF8) {
			t.Fatalf("encoding choose %+v: %v", want, err)
		}
		if err == nil {
			var got ChooseMsg
			if err := got.DecodeBinary(body); err != nil ||
				!slices.Equal(got.Candidates, want.Candidates) || !slices.Equal(got.Repair, want.Repair) {
				t.Fatalf("choose %+v came back as %+v, %v", want, got, err)
			}
		}
		wantR := ReportMsg{Option: g.option(), Metrics: quality.Metrics{RTTMs: g.float(), LossRate: g.float(), JitterMs: g.float()}, DurationSec: g.float(), Repair: g.name()}
		body, err = AppendReport(nil, wantR.Option, wantR.Metrics, wantR.DurationSec, wantR.Repair)
		finite := !slices.ContainsFunc(reportFloats(wantR), func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) })
		if (err == nil) != (finite && !invalidUTF8(wantR.Repair)) {
			t.Fatalf("encoding report %+v: %v", wantR, err)
		}
		if err == nil {
			var gotR ReportMsg
			if err := gotR.DecodeBinary(body); err != nil || gotR.Option != wantR.Option || gotR.Repair != wantR.Repair || !floatsEqual(reportFloats(gotR), reportFloats(wantR)) {
				t.Fatalf("report %+v came back as %+v, %v", wantR, gotR, err)
			}
		}
		wantD := Decision{Option: g.option(), Repair: g.name()}
		body, err = AppendDecision(nil, wantD.Option, wantD.Repair)
		if (err == nil) != !invalidUTF8(wantD.Repair) {
			t.Fatalf("encoding decision %+v: %v", wantD, err)
		}
		if err == nil {
			var gotD Decision
			if err := gotD.DecodeBinary(body); err != nil || gotD != wantD {
				t.Fatalf("decision %+v came back as %+v, %v", wantD, gotD, err)
			}
		}
	})
}
