package transport

import (
	"encoding/binary"
	"errors"
	"math"
	"unicode/utf8"

	"repro/internal/netsim"
	"repro/internal/quality"
)

// The bodies of via-control/2 (stream.go): big-endian, fixed layout, every
// count checked against the bytes that are left before anything is
// allocated for it, and nothing after the last field.
//
//	option:          u8 kind | i32 r1 | i32 r2   (kind 0 direct, 1 bounce, 2 transit)
//	name:            u8 len | len bytes
//	choose request:  u16 n | n × option | u8 m | m × name   (candidates, repair schemes)
//	report request:  option | f64 rtt_ms | f64 loss_rate | f64 jitter_ms | f64 duration_sec | name
//	choose reply:    option | name   (the decision and its repair scheme)
//	report reply:    empty
//
// An option travels as netsim's constructors build it (a direct option's
// relays are -1, a bounce's r2 is -1, a transit's relays differ), and a
// float must be finite, as JSON requires; a decoder refuses anything else,
// so every body it accepts re-encodes to the same bytes. A scheme name must
// be valid UTF-8: the WAL logs it in JSON, which would turn each invalid
// byte into U+FFFD, so a replay would see a different name than the live
// call did (two such names could even become one). The pair is not
// in the body: it rides in the request header.

// ChooseMsg is a choose request, whichever carrier brought it: the pair,
// the candidate options, and the loss-repair schemes the caller supports
// (empty for a repair-unaware client).
type ChooseMsg struct {
	Src, Dst   int32
	Candidates []netsim.Option
	Repair     []string
}

// ReportMsg is a report request, whichever carrier brought it: the pair,
// the option the call ran on, its post-repair metrics, its length in
// seconds (0 = the controller's default), and the repair scheme it ran
// with ("" for none).
type ReportMsg struct {
	Src, Dst    int32
	Option      netsim.Option
	Metrics     quality.Metrics
	DurationSec float64
	Repair      string
}

// Decision is the body of a 200 answer to a choose: the option and the
// repair scheme ("" when the request offered none).
type Decision struct {
	Option netsim.Option
	Repair string
}

// Wire sizes of the fixed parts.
const (
	optionLen     = 9
	maxCandidates = math.MaxUint16
	maxNames      = math.MaxUint8
	maxNameLen    = math.MaxUint8
)

var (
	errBodyShort    = errors.New("transport: control body truncated")
	errBodyTrailing = errors.New("transport: control body has trailing bytes")
	errBadOption    = errors.New("transport: control body carries an invalid option")
	errBadFloat     = errors.New("transport: control body carries a non-finite float")
	errTooMany      = errors.New("transport: too many candidates or repair schemes for a control body")
	errNameTooLong  = errors.New("transport: repair scheme name longer than 255 bytes")
	errBadName      = errors.New("transport: repair scheme name is not valid UTF-8")
)

// canonicalOption returns o as netsim's constructors build it, and whether
// its kind is one of the three.
func canonicalOption(o netsim.Option) (netsim.Option, bool) {
	switch o.Kind {
	case netsim.Direct:
		return netsim.DirectOption(), true
	case netsim.Bounce:
		return netsim.BounceOption(o.R1), true
	case netsim.Transit:
		return netsim.TransitOption(o.R1, o.R2), true
	}
	return o, false
}

//via:noalloc
func appendOption(dst []byte, o netsim.Option) ([]byte, error) {
	o, ok := canonicalOption(o)
	if !ok {
		return dst, errBadOption
	}
	dst = append(dst, byte(o.Kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(o.R1))
	return binary.BigEndian.AppendUint32(dst, uint32(o.R2)), nil
}

//via:noalloc
func appendName(dst []byte, s string) ([]byte, error) {
	if len(s) > maxNameLen {
		return dst, errNameTooLong
	}
	if !utf8.ValidString(s) {
		return dst, errBadName
	}
	return append(append(dst, byte(len(s))), s...), nil
}

//via:noalloc
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, errBadFloat
	}
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f)), nil
}

// AppendChoose appends the body of a choose request for cands, offering
// the repair schemes named in schemes.
//
//via:noalloc
func AppendChoose(dst []byte, cands []netsim.Option, schemes []string) ([]byte, error) {
	if len(cands) > maxCandidates || len(schemes) > maxNames {
		return dst, errTooMany
	}
	var err error
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(cands)))
	for _, o := range cands {
		if dst, err = appendOption(dst, o); err != nil {
			return dst, err
		}
	}
	dst = append(dst, byte(len(schemes)))
	for _, s := range schemes {
		if dst, err = appendName(dst, s); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// AppendReport appends the body of a report request: the option the call
// ran on, its metrics and length, and the repair scheme it ran with.
//
//via:noalloc
func AppendReport(dst []byte, opt netsim.Option, m quality.Metrics, durSec float64, scheme string) ([]byte, error) {
	var err error
	if dst, err = appendOption(dst, opt); err != nil {
		return dst, err
	}
	for _, f := range [4]float64{m.RTTMs, m.LossRate, m.JitterMs, durSec} {
		if dst, err = appendFloat(dst, f); err != nil {
			return dst, err
		}
	}
	return appendName(dst, scheme)
}

// AppendDecision appends the body of a 200 answer to a choose.
//
//via:noalloc
func AppendDecision(dst []byte, opt netsim.Option, scheme string) ([]byte, error) {
	dst, err := appendOption(dst, opt)
	if err != nil {
		return dst, err
	}
	return appendName(dst, scheme)
}

// bodyReader consumes a body front to back; the first shortfall or bad
// field sticks in err and every later read returns zero.
type bodyReader struct {
	b   []byte
	err error
}

func (r *bodyReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = errBodyShort
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *bodyReader) u8() int {
	if b := r.take(1); b != nil {
		return int(b[0])
	}
	return 0
}

func (r *bodyReader) u16() int {
	if b := r.take(2); b != nil {
		return int(binary.BigEndian.Uint16(b))
	}
	return 0
}

func (r *bodyReader) option() netsim.Option {
	b := r.take(optionLen)
	if b == nil {
		return netsim.DirectOption()
	}
	o := netsim.Option{
		Kind: netsim.OptionKind(b[0]),
		R1:   netsim.RelayID(int32(binary.BigEndian.Uint32(b[1:]))),
		R2:   netsim.RelayID(int32(binary.BigEndian.Uint32(b[5:]))),
	}
	if c, ok := canonicalOption(o); !ok || c != o {
		r.err = errBadOption
		return netsim.DirectOption()
	}
	return o
}

func (r *bodyReader) float() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	f := math.Float64frombits(binary.BigEndian.Uint64(b))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		r.err = errBadFloat
		return 0
	}
	return f
}

// name reads a scheme name, which must be valid UTF-8; the names the
// system speaks cost no allocation.
func (r *bodyReader) name() string {
	b := r.take(r.u8())
	if !utf8.Valid(b) {
		r.err = errBadName
		return ""
	}
	switch string(b) {
	case "":
		return ""
	case "none":
		return "none"
	case "nack":
		return "nack"
	case "red":
		return "red"
	case "fec-4":
		return "fec-4"
	}
	return string(b)
}

// end is the decoder's verdict: the first error, or trailing bytes.
func (r *bodyReader) end() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = errBodyTrailing
	}
	return r.err
}

// DecodeBinary sets m's candidates and repair schemes from a choose body,
// leaving the pair alone. The candidates are one allocation; none and an
// empty list both decode to nil.
func (m *ChooseMsg) DecodeBinary(body []byte) error {
	r := bodyReader{b: body}
	n := r.u16()
	if r.err == nil && len(r.b) < n*optionLen {
		return errBodyShort // checked before the slice is made for it
	}
	m.Candidates, m.Repair = nil, nil
	if n > 0 {
		m.Candidates = make([]netsim.Option, n)
		for i := range m.Candidates {
			m.Candidates[i] = r.option()
		}
	}
	if k := r.u8(); k > 0 && r.err == nil {
		if len(r.b) < k {
			return errBodyShort // each name takes at least its length byte
		}
		m.Repair = make([]string, k)
		for i := range m.Repair {
			m.Repair[i] = r.name()
		}
	}
	return r.end()
}

// DecodeBinary sets m's option, metrics, duration and scheme from a report
// body, leaving the pair alone.
func (m *ReportMsg) DecodeBinary(body []byte) error {
	r := bodyReader{b: body}
	m.Option = r.option()
	m.Metrics = quality.Metrics{RTTMs: r.float(), LossRate: r.float(), JitterMs: r.float()}
	m.DurationSec = r.float()
	m.Repair = r.name()
	return r.end()
}

// DecodeBinary sets d from the body of a 200 answer to a choose.
func (d *Decision) DecodeBinary(body []byte) error {
	r := bodyReader{b: body}
	d.Option = r.option()
	d.Repair = r.name()
	return r.end()
}
