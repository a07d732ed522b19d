package controller

import (
	"strconv"

	"repro/internal/transport"
)

// Hand-written codecs for the two hot WAL records, under the contract in
// internal/transport/jsoncodec.go: AppendJSON writes the bytes json.Marshal
// would, so the log is unchanged; DecodeJSON is json.Unmarshal into a zero
// value, so every record ever written — including those from before the
// "repair" and "duration_sec" keys existed — replays as it always has.
// walTerm and walBudget are rare and stay on encoding/json.

// AppendJSON appends the record as json.Marshal encodes it.
//
//via:noalloc
func (c walChoose) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"t_hours":`...)
	if dst, err = transport.AppendJSONFloat(dst, c.THours); err != nil {
		return dst, err
	}
	dst = append(dst, `,"src":`...)
	dst = strconv.AppendInt(dst, int64(c.Src), 10)
	dst = append(dst, `,"dst":`...)
	dst = strconv.AppendInt(dst, int64(c.Dst), 10)
	dst = append(dst, `,"cands":`...)
	dst = transport.AppendWireOptions(dst, c.Cands)
	if len(c.Repair) > 0 {
		dst = append(dst, `,"repair":`...)
		dst = transport.AppendJSONStrings(dst, c.Repair)
	}
	return append(dst, '}'), nil
}

func (c *walChoose) scanJSON(s *transport.JSONScanner) {
	for q := s.Object(); q.Next(); {
		switch {
		case q.Field("t_hours", 0):
			c.THours = s.Float64()
		case q.Field("src", 1):
			c.Src = s.Int32()
		case q.Field("dst", 2):
			c.Dst = s.Int32()
		case q.Field("cands", 3):
			c.Cands = transport.ScanWireOptions(s)
		case q.Field("repair", 4):
			c.Repair = s.Strings()
		default:
			s.Fail()
		}
	}
}

// DecodeJSON sets *c from data as json.Unmarshal sets a zero value.
func (c *walChoose) DecodeJSON(data []byte) error {
	s := transport.ScanJSON(data)
	c.scanJSON(&s)
	if s.End() {
		return nil
	}
	return transport.UnmarshalStd(data, c)
}

// AppendJSON appends the record as json.Marshal encodes it.
//
//via:noalloc
func (r walReport) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"t_hours":`...)
	if dst, err = transport.AppendJSONFloat(dst, r.THours); err != nil {
		return dst, err
	}
	dst = append(dst, `,"src":`...)
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
		dst = transport.AppendJSONString(dst, r.Repair)
	}
	if r.DurationSec != 0 {
		dst = append(dst, `,"duration_sec":`...)
		if dst, err = transport.AppendJSONFloat(dst, r.DurationSec); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

func (r *walReport) scanJSON(s *transport.JSONScanner) {
	for q := s.Object(); q.Next(); {
		switch {
		case q.Field("t_hours", 0):
			r.THours = s.Float64()
		case q.Field("src", 1):
			r.Src = s.Int32()
		case q.Field("dst", 2):
			r.Dst = s.Int32()
		case q.Field("option", 3):
			r.Option.ScanJSON(s)
		case q.Field("metrics", 4):
			r.Metrics.ScanJSON(s)
		case q.Field("repair", 5):
			r.Repair = s.String()
		case q.Field("duration_sec", 6):
			r.DurationSec = s.Float64()
		default:
			s.Fail()
		}
	}
}

// DecodeJSON sets *r from data as json.Unmarshal sets a zero value.
func (r *walReport) DecodeJSON(data []byte) error {
	s := transport.ScanJSON(data)
	r.scanJSON(&s)
	if s.End() {
		return nil
	}
	return transport.UnmarshalStd(data, r)
}
