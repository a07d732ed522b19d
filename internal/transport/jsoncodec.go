package transport

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The controller's two hot WAL records (walChoose and walReport, with the
// WireOption and WireMetrics they embed, control_codec.go) are encoded and
// decoded by hand, in the append idiom Frame.Marshal uses, instead of
// through encoding/json's reflection: they are written under the WAL lock
// and read on every standby ingest. JSON stays the format: the contract is
// that nothing a log reader can observe changes. (The POST bodies use
// encoding/json, though the ring gate's peekPair still finds their pair
// with this scanner; the control stream carries binary bodies,
// control_binary.go.)
//
//   - Encoders append exactly the bytes json.Marshal produces for the
//     same value (field order, omitempty, nil slice → null, the float and
//     string-escaping rules below).
//   - Decoders accept the canonical grammar — known keys spelled exactly,
//     each at most once, in any order, with any JSON whitespace; numbers;
//     escape-free ASCII strings — and hand every other input (escapes,
//     non-ASCII, unknown, duplicate or case-folded keys, null, trailing
//     data, any syntax error) to encoding/json through UnmarshalStd. So
//     for every input the value and the accept/reject verdict are
//     encoding/json's, and so is every error message.
//
// The differential fuzzers (FuzzControlCodec here for the wire types and
// the string primitives, FuzzWALRecordCodec in internal/controller for the records, FuzzPeekPair
// in internal/ring) hold both halves of the contract.

// MaxBodyBytes bounds a control-plane HTTP body, request or response. The
// controller's POST handlers, the ring gate and router, and the client all
// read whole bodies, and none reads past this.
const MaxBodyBytes = 1 << 20

// errBodyTooLarge is ReadBody's error for a body beyond MaxBodyBytes.
var errBodyTooLarge = errors.New("transport: body exceeds 1 MiB")

// errUnsupportedFloat is the encoders' error for NaN and ±Inf, which JSON
// cannot carry (json.Marshal fails on them too).
var errUnsupportedFloat = errors.New("transport: unsupported float value (NaN or Inf)")

// Buffer is a pooled scratch buffer for one encode or one whole-body read.
type Buffer struct{ B []byte }

// maxPooledBuffer keeps one oversized body from pinning its buffer in the
// pool forever.
const maxPooledBuffer = 64 << 10

var bufPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 512)} }}

// GetBuffer returns an empty buffer from the pool.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// Release returns the buffer to the pool. The caller must not touch B
// afterwards; decoded values never alias it.
func (b *Buffer) Release() {
	if cap(b.B) <= maxPooledBuffer {
		bufPool.Put(b)
	}
}

// ReadBody appends a whole HTTP body to dst. With a declared Content-Length
// it sizes dst once and reads exactly that many bytes; without one
// (chunked) it reads to EOF. Either way it stops at MaxBodyBytes.
func ReadBody(dst []byte, r io.Reader, contentLength int64) ([]byte, error) {
	if contentLength > MaxBodyBytes {
		return dst, errBodyTooLarge
	}
	start := len(dst)
	if contentLength >= 0 {
		dst = slices.Grow(dst, int(contentLength))[:start+int(contentLength)]
		_, err := io.ReadFull(r, dst[start:])
		return dst, err
	}
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 512)
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if len(dst)-start > MaxBodyBytes {
			return dst, errBodyTooLarge
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// ReadRequest reads a POST body into a pooled buffer, bounded by
// MaxBodyBytes. On failure it has already answered — 413 for an oversized
// body, 400 for a failed read — and returns nil.
func ReadRequest(w http.ResponseWriter, r *http.Request) *Buffer {
	buf := GetBuffer()
	var err error
	buf.B, err = ReadBody(buf.B, http.MaxBytesReader(w, r.Body, MaxBodyBytes), r.ContentLength)
	if err == nil {
		return buf
	}
	buf.Release()
	var tooLarge *http.MaxBytesError
	if errors.Is(err, errBodyTooLarge) || errors.As(err, &tooLarge) {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, "read request: "+err.Error(), http.StatusBadRequest)
	}
	return nil
}

// UnmarshalStd is the decoders' way out of the canonical grammar: it
// decodes data into *v with encoding/json, as into a zero value. It goes
// through a fresh heap value so that v itself need not escape, which keeps
// a decode that never gets here allocation-free.
func UnmarshalStd[T any](data []byte, v *T) error {
	p := new(T)
	err := json.Unmarshal(data, p)
	*v = *p
	return err
}

// AppendJSONFloat appends f as encoding/json renders a float64: ES6
// number-to-string — 'f' format, or 'e' below 1e-6 and from 1e21, with a
// two-digit negative exponent's leading zero dropped.
//
//via:noalloc
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errUnsupportedFloat
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json cleans it up.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s quoted as encoding/json does with its default
// HTML escaping: ", \ and control characters escaped (short forms for
// \b \f \n \r \t), <, > and & as \u00XX, U+2028/U+2029 as \u202X, and each
// invalid UTF-8 byte as \ufffd.
//
//via:noalloc
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendJSONStrings appends a []string as encoding/json does: null for a
// nil slice, [] for an empty one.
//
//via:noalloc
func AppendJSONStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, s)
	}
	return append(dst, ']')
}

// JSONScanner reads the canonical grammar out of one JSON document. It
// never reports why it stopped: the first thing it does not recognise
// marks it failed, every later call is a no-op returning zero, and the
// caller asks End once and hands the document to UnmarshalStd on false.
type JSONScanner struct {
	buf []byte
	pos int
	bad bool
}

// ScanJSON starts a scanner over data.
func ScanJSON(data []byte) JSONScanner { return JSONScanner{buf: data} }

// Fail marks the document as outside the canonical grammar.
func (s *JSONScanner) Fail() { s.bad = true }

// End reports whether the whole document was consumed, trailing whitespace
// aside, without a failure.
func (s *JSONScanner) End() bool {
	s.peek()
	return !s.bad && s.pos == len(s.buf)
}

// peek skips whitespace and returns the next byte without consuming it, or
// 0 at the end of the document.
func (s *JSONScanner) peek() byte {
	for s.pos < len(s.buf) {
		switch c := s.buf[s.pos]; c {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

// expect consumes c, after whitespace.
func (s *JSONScanner) expect(c byte) {
	if s.bad || s.peek() != c {
		s.bad = true
		return
	}
	s.pos++
}

// JSONSeq walks the members of one object or the elements of one array.
type JSONSeq struct {
	s     *JSONScanner
	close byte   // '}' or ']'
	n     int    // members consumed
	seen  uint32 // Field bits matched so far
	// Key is the current member's name (objects only). It aliases the
	// document.
	Key []byte
}

// Object opens an object. Loop on Next and match Key with Field.
func (s *JSONScanner) Object() JSONSeq {
	s.expect('{')
	return JSONSeq{s: s, close: '}'}
}

// Array opens an array. Loop on Next and scan one element per turn.
func (s *JSONScanner) Array() JSONSeq {
	s.expect('[')
	return JSONSeq{s: s, close: ']'}
}

// Next advances to the next member (consuming its key and colon, for an
// object) and reports whether there is one. It returns false at the closing
// bracket and on failure.
func (q *JSONSeq) Next() bool {
	s := q.s
	if s.bad {
		return false
	}
	c := s.peek()
	if c == q.close {
		s.pos++
		return false
	}
	if q.n > 0 {
		if c != ',' {
			s.bad = true
			return false
		}
		s.pos++
	}
	q.n++
	if q.close == '}' {
		q.Key = s.rawString()
		s.expect(':')
	}
	return !s.bad
}

// Field reports whether the current key is name, spelled exactly. bit
// identifies the field within this object: a second member with the same
// name fails the scan, because encoding/json merges duplicates rather than
// replacing them.
func (q *JSONSeq) Field(name string, bit uint) bool {
	if string(q.Key) != name {
		return false
	}
	if q.seen&(1<<bit) != 0 {
		q.s.bad = true
	}
	q.seen |= 1 << bit
	return true
}

// rawString consumes a string of printable ASCII with no escapes and
// returns its contents, aliasing the document.
func (s *JSONScanner) rawString() []byte {
	s.expect('"')
	if s.bad {
		return nil
	}
	start := s.pos
	for i := start; i < len(s.buf); i++ {
		switch c := s.buf[i]; {
		case c == '"':
			s.pos = i + 1
			return s.buf[start:i]
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// String consumes a string value.
func (s *JSONScanner) String() string { return string(s.rawString()) }

// Strings consumes an array of strings. Like encoding/json it returns an
// empty, non-nil slice for [].
func (s *JSONScanner) Strings() []string {
	q := s.Array()
	// One allocation: an element per comma is an upper bound good enough
	// for a capacity, and a wrong guess only costs an append.
	n := 1
	for i := s.pos; i < len(s.buf) && s.buf[i] != ']'; i++ {
		if s.buf[i] == ',' {
			n++
		}
	}
	out := make([]string, 0, n)
	for q.Next() {
		out = append(out, s.String())
	}
	return out
}

// boolean consumes true or false.
func (s *JSONScanner) boolean() bool {
	s.peek()
	rest := s.buf[s.pos:]
	switch {
	case s.bad:
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.pos += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.pos += 5
	default:
		s.bad = true
	}
	return false
}

// digits consumes a run of decimal digits from i and returns where it ends.
func (s *JSONScanner) digits(i int) int {
	for i < len(s.buf) && s.buf[i]-'0' <= 9 {
		i++
	}
	return i
}

// intPart consumes the integer part of a JSON number — -?(0|[1-9][0-9]*) —
// starting at s.pos and returns where it ends, or fails the scan.
func (s *JSONScanner) intPart() int {
	i := s.pos
	if i < len(s.buf) && s.buf[i] == '-' {
		i++
	}
	end := s.digits(i)
	if end == i || (s.buf[i] == '0' && end > i+1) {
		s.bad = true
	}
	return end
}

// Int32 consumes an integer literal that fits an int32. A fraction or an
// exponent is left unconsumed, which fails the enclosing Next: for an
// integer field encoding/json rejects 1.0 and 1e2 too.
func (s *JSONScanner) Int32() int32 {
	s.peek()
	start := s.pos
	end := s.intPart()
	if s.bad || end-start > 11 {
		s.bad = true
		return 0
	}
	var n int64
	for _, c := range s.buf[start:end] {
		if c != '-' {
			n = n*10 + int64(c-'0')
		}
	}
	if s.buf[start] == '-' {
		n = -n
	}
	if n < math.MinInt32 || n > math.MaxInt32 {
		s.bad = true
		return 0
	}
	s.pos = end
	return int32(n)
}

// Float64 consumes a JSON number literal. A literal out of float64's range
// fails the scan, as it fails json.Unmarshal.
func (s *JSONScanner) Float64() float64 {
	s.peek()
	start := s.pos
	end := s.intPart()
	if s.bad {
		return 0
	}
	if end < len(s.buf) && s.buf[end] == '.' {
		frac := s.digits(end + 1)
		if frac == end+1 {
			s.bad = true
			return 0
		}
		end = frac
	}
	if end < len(s.buf) && (s.buf[end] == 'e' || s.buf[end] == 'E') {
		i := end + 1
		if i < len(s.buf) && (s.buf[i] == '+' || s.buf[i] == '-') {
			i++
		}
		exp := s.digits(i)
		if exp == i {
			s.bad = true
			return 0
		}
		end = exp
	}
	// The conversion stays on the stack for any literal Go itself writes
	// (at most 24 bytes).
	f, err := strconv.ParseFloat(string(s.buf[start:end]), 64)
	if err != nil {
		s.bad = true
		return 0
	}
	s.pos = end
	return f
}

// maxSkipDepth bounds Skip's recursion; anything nested deeper is left to
// encoding/json, which has its own limit.
const maxSkipDepth = 32

// Skip consumes and validates one value of any type — a member the caller
// has no field for. null is not in the canonical grammar.
func (s *JSONScanner) Skip() { s.skip(0) }

func (s *JSONScanner) skip(depth int) {
	if depth > maxSkipDepth {
		s.bad = true
		return
	}
	switch c := s.peek(); {
	case c == '{':
		for q := s.Object(); q.Next(); {
			s.skip(depth + 1)
		}
	case c == '[':
		for q := s.Array(); q.Next(); {
			s.skip(depth + 1)
		}
	case c == '"':
		s.rawString()
	case c == 't' || c == 'f':
		s.boolean()
	case c == '-' || c-'0' <= 9:
		s.Float64()
	default:
		s.bad = true
	}
}
