package transport

import (
	"strconv"

	"repro/internal/netsim"
)

// Hand-written codecs for the JSON control messages of POST /v1/choose
// and /v1/report — ChooseRequest, ChooseResponse, ReportRequest,
// ReportResponse — and the WireOption and WireMetrics they (and the WAL
// records) embed. See jsoncodec.go for the contract: AppendJSON is
// json.Marshal byte for byte, DecodeJSON is json.Unmarshal into a zero
// value. Every other message stays on encoding/json.
//
// Adding a field to one of these structs means adding it to both methods
// here; TestCodecCoversEveryField fails until that is done.

// AppendJSON appends the option as json.Marshal encodes it.
//
//via:noalloc
func (o WireOption) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"kind":`...)
	dst = AppendJSONString(dst, o.Kind)
	if o.R1 != 0 {
		dst = append(dst, `,"r1":`...)
		dst = strconv.AppendInt(dst, int64(o.R1), 10)
	}
	if o.R2 != 0 {
		dst = append(dst, `,"r2":`...)
		dst = strconv.AppendInt(dst, int64(o.R2), 10)
	}
	return append(dst, '}')
}

// ScanJSON reads one option object.
func (o *WireOption) ScanJSON(s *JSONScanner) {
	for q := s.Object(); q.Next(); {
		switch {
		case q.Field("kind", 0):
			// The three kinds the system speaks cost no allocation.
			switch k := s.rawString(); string(k) {
			case "direct":
				o.Kind = "direct"
			case "bounce":
				o.Kind = "bounce"
			case "transit":
				o.Kind = "transit"
			default:
				o.Kind = string(k)
			}
		case q.Field("r1", 1):
			o.R1 = netsim.RelayID(s.Int32())
		case q.Field("r2", 2):
			o.R2 = netsim.RelayID(s.Int32())
		default:
			s.Fail()
		}
	}
}

// AppendWireOptions appends a []WireOption as json.Marshal encodes it:
// null for a nil slice, [] for an empty one.
//
//via:noalloc
func AppendWireOptions(dst []byte, opts []WireOption) []byte {
	if opts == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, o := range opts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = o.AppendJSON(dst)
	}
	return append(dst, ']')
}

// ScanWireOptions reads an array of options in one allocation. Like
// encoding/json it returns an empty, non-nil slice for [].
func ScanWireOptions(s *JSONScanner) []WireOption {
	q := s.Array()
	// An option holds no nested object, so its opening brace counts it.
	n := 0
	for i := s.pos; i < len(s.buf) && s.buf[i] != ']'; i++ {
		if s.buf[i] == '{' {
			n++
		}
	}
	out := make([]WireOption, 0, n)
	for q.Next() {
		var o WireOption
		o.ScanJSON(s)
		out = append(out, o)
	}
	return out
}

// AppendJSON appends the metrics as json.Marshal encodes them. NaN and
// ±Inf are an error, as they are for json.Marshal.
//
//via:noalloc
func (m WireMetrics) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"rtt_ms":`...)
	if dst, err = AppendJSONFloat(dst, m.RTTMs); err != nil {
		return dst, err
	}
	dst = append(dst, `,"loss_rate":`...)
	if dst, err = AppendJSONFloat(dst, m.LossRate); err != nil {
		return dst, err
	}
	dst = append(dst, `,"jitter_ms":`...)
	if dst, err = AppendJSONFloat(dst, m.JitterMs); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// ScanJSON reads one metrics object.
func (m *WireMetrics) ScanJSON(s *JSONScanner) {
	for q := s.Object(); q.Next(); {
		switch {
		case q.Field("rtt_ms", 0):
			m.RTTMs = s.Float64()
		case q.Field("loss_rate", 1):
			m.LossRate = s.Float64()
		case q.Field("jitter_ms", 2):
			m.JitterMs = s.Float64()
		default:
			s.Fail()
		}
	}
}

// AppendJSON appends the request as json.Marshal encodes it.
//
//via:noalloc
func (r ChooseRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"src":`...)
	dst = strconv.AppendInt(dst, int64(r.Src), 10)
	dst = append(dst, `,"dst":`...)
	dst = strconv.AppendInt(dst, int64(r.Dst), 10)
	dst = append(dst, `,"candidates":`...)
	dst = AppendWireOptions(dst, r.Candidates)
	if len(r.RepairCandidates) > 0 {
		dst = append(dst, `,"repair_candidates":`...)
		dst = AppendJSONStrings(dst, r.RepairCandidates)
	}
	return append(dst, '}'), nil
}

func (r *ChooseRequest) scanJSON(s *JSONScanner) {
	for q := s.Object(); q.Next(); {
		switch {
		case q.Field("src", 0):
			r.Src = s.Int32()
		case q.Field("dst", 1):
			r.Dst = s.Int32()
		case q.Field("candidates", 2):
			r.Candidates = ScanWireOptions(s)
		case q.Field("repair_candidates", 3):
			r.RepairCandidates = s.Strings()
		default:
			s.Fail()
		}
	}
}

// DecodeJSON sets *r from data as json.Unmarshal sets a zero value.
func (r *ChooseRequest) DecodeJSON(data []byte) error {
	s := ScanJSON(data)
	r.scanJSON(&s)
	if s.End() {
		return nil
	}
	return UnmarshalStd(data, r)
}

// AppendJSON appends the response as json.Marshal encodes it.
//
//via:noalloc
func (r ChooseResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"option":`...)
	dst = r.Option.AppendJSON(dst)
	if r.Repair != "" {
		dst = append(dst, `,"repair":`...)
		dst = AppendJSONString(dst, r.Repair)
	}
	return append(dst, '}'), nil
}

func (r *ChooseResponse) scanJSON(s *JSONScanner) {
	for q := s.Object(); q.Next(); {
		switch {
		case q.Field("option", 0):
			r.Option.ScanJSON(s)
		case q.Field("repair", 1):
			r.Repair = s.String()
		default:
			s.Fail()
		}
	}
}

// DecodeJSON sets *r from data as json.Unmarshal sets a zero value.
func (r *ChooseResponse) DecodeJSON(data []byte) error {
	s := ScanJSON(data)
	r.scanJSON(&s)
	if s.End() {
		return nil
	}
	return UnmarshalStd(data, r)
}

// AppendJSON appends the request as json.Marshal encodes it.
//
//via:noalloc
func (r ReportRequest) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"src":`...)
	dst = strconv.AppendInt(dst, int64(r.Src), 10)
	dst = append(dst, `,"dst":`...)
	dst = strconv.AppendInt(dst, int64(r.Dst), 10)
	dst = append(dst, `,"option":`...)
	dst = r.Option.AppendJSON(dst)
	dst = append(dst, `,"metrics":`...)
	if dst, err = r.Metrics.AppendJSON(dst); err != nil {
		return dst, err
	}
	if r.Repair != "" {
		dst = append(dst, `,"repair":`...)
		dst = AppendJSONString(dst, r.Repair)
	}
	if r.DurationSec != 0 {
		dst = append(dst, `,"duration_sec":`...)
		if dst, err = AppendJSONFloat(dst, r.DurationSec); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

func (r *ReportRequest) scanJSON(s *JSONScanner) {
	for q := s.Object(); q.Next(); {
		switch {
		case q.Field("src", 0):
			r.Src = s.Int32()
		case q.Field("dst", 1):
			r.Dst = s.Int32()
		case q.Field("option", 2):
			r.Option.ScanJSON(s)
		case q.Field("metrics", 3):
			r.Metrics.ScanJSON(s)
		case q.Field("repair", 4):
			r.Repair = s.String()
		case q.Field("duration_sec", 5):
			r.DurationSec = s.Float64()
		default:
			s.Fail()
		}
	}
}

// DecodeJSON sets *r from data as json.Unmarshal sets a zero value.
func (r *ReportRequest) DecodeJSON(data []byte) error {
	s := ScanJSON(data)
	r.scanJSON(&s)
	if s.End() {
		return nil
	}
	return UnmarshalStd(data, r)
}

// AppendJSON appends the response as json.Marshal encodes it.
//
//via:noalloc
func (r ReportResponse) AppendJSON(dst []byte) ([]byte, error) {
	if r.OK {
		return append(dst, `{"ok":true}`...), nil
	}
	return append(dst, `{"ok":false}`...), nil
}

func (r *ReportResponse) scanJSON(s *JSONScanner) {
	for q := s.Object(); q.Next(); {
		switch {
		case q.Field("ok", 0):
			r.OK = s.Bool()
		default:
			s.Fail()
		}
	}
}

// DecodeJSON sets *r from data as json.Unmarshal sets a zero value.
func (r *ReportResponse) DecodeJSON(data []byte) error {
	s := ScanJSON(data)
	r.scanJSON(&s)
	if s.End() {
		return nil
	}
	return UnmarshalStd(data, r)
}
