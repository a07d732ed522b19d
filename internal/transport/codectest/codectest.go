// Package codectest holds the checks every hand-written JSON codec on the
// call-setup record path must pass — the control messages in
// internal/transport and the WAL records in internal/controller. The
// reference is always encoding/json applied to the same struct.
package codectest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// Shape is one struct's codec, as method expressions.
type Shape[T any] struct {
	Decode func(*T, []byte) error
	Append func(T, []byte) ([]byte, error)
	// Canonical reports whether the hand-written scanner, rather than the
	// encoding/json fallback behind Decode, accepts data.
	Canonical func([]byte) bool
}

// Differential checks the identity contract on arbitrary bytes: Decode
// yields the value and the verdict of json.Unmarshal, and for a value that
// decoded, Append yields the bytes and the verdict of json.Marshal.
func (s Shape[T]) Differential(t *testing.T, data []byte) {
	t.Helper()
	var want, got T
	wantErr := json.Unmarshal(data, &want)
	gotErr := s.Decode(&got, data)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%T %q: Decode error %v, json.Unmarshal error %v", want, data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%T %q: Decode gave %+v, json.Unmarshal gave %+v", want, data, got, want)
	}
	if s.Canonical(data) && wantErr != nil {
		t.Fatalf("%T %q: scanner accepts what json.Unmarshal rejects: %v", want, data, wantErr)
	}
	if wantErr == nil {
		s.SameBytes(t, want)
	}
}

// SameBytes checks Append against json.Marshal for one value, bytes and
// verdict, appending after a prefix to catch an encoder that overwrites.
func (s Shape[T]) SameBytes(t *testing.T, v T) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	got, gotErr := s.Append(v, []byte("prefix"))
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%+v: Append error %v, json.Marshal error %v", v, gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("%+v:\nAppend       %s\njson.Marshal prefix%s", v, got, want)
	}
}

// EveryField is the drift guard: a field added to T without teaching the
// codec fails here. It fills every field with a non-zero value, then
// zeroes every omitempty field, and each time requires Append ≡
// json.Marshal, the scanner (not the fallback) accepting those bytes, and
// a lossless round trip.
func (s Shape[T]) EveryField(t *testing.T) {
	t.Helper()
	var v T
	n := 0
	fill(reflect.ValueOf(&v).Elem(), &n)
	for _, pass := range []string{"all fields set", "omitempty fields zero"} {
		s.SameBytes(t, v)
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Canonical(data) {
			t.Errorf("%T, %s: scanner does not accept the struct's own encoding %s", v, pass, data)
		}
		var back T
		if err := s.Decode(&back, data); err != nil || !reflect.DeepEqual(v, back) {
			t.Errorf("%T, %s: round trip of %s gave %+v, %v", v, pass, data, back, err)
		}
		clearOmitEmpty(reflect.ValueOf(&v).Elem())
	}
}

// fill sets every field reachable from v to a distinct non-zero value.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.String:
		v.SetString(strings.Repeat("s", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	default:
		panic("codectest: no fill rule for " + v.Type().String())
	}
}

// clearOmitEmpty zeroes every field tagged omitempty, at any depth.
func clearOmitEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if strings.Contains(v.Type().Field(i).Tag.Get("json"), ",omitempty") {
				v.Field(i).SetZero()
			} else {
				clearOmitEmpty(v.Field(i))
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			clearOmitEmpty(v.Index(i))
		}
	}
}
