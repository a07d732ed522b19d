package transport

import (
	"strconv"

	"repro/internal/netsim"
)

// Hand-written codecs for WireOption and WireMetrics, the two wire types
// the controller's hot WAL records (walChoose, walReport) embed. See
// jsoncodec.go for the contract: AppendJSON is json.Marshal byte for byte,
// ScanJSON reads the canonical grammar and leaves the rest to the record's
// encoding/json fallback. The POST bodies that carry these types stay on
// encoding/json.
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
