// Package value defines the typed constants that populate relations and
// appear in conjunctive queries. A Value is an immutable scalar of one of
// four kinds: string, int64, float64, or time (stored as Unix nanoseconds).
//
// Values are comparable with == (they are small structs with no pointers
// beyond the string header) and therefore usable as map keys, which the
// evaluation and rewriting engines rely on heavily.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

// The supported value kinds.
const (
	KindString Kind = iota
	KindInt
	KindFloat
	KindTime
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindTime:
		return "time"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable typed scalar. The zero Value is the empty string.
type Value struct {
	kind Kind
	s    string  // set iff kind == KindString
	i    int64   // set iff kind == KindInt or KindTime (unix nanos)
	f    float64 // set iff kind == KindFloat
}

// String constructs a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int constructs an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float constructs a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Time constructs a time value with nanosecond precision.
func Time(t time.Time) Value { return Value{kind: KindTime, i: t.UnixNano()} }

// Kind reports the kind of v.
func (v Value) Kind() Kind { return v.kind }

// Str returns the string payload. It is only meaningful when Kind is
// KindString.
func (v Value) Str() string { return v.s }

// IntVal returns the integer payload. It is only meaningful when Kind is
// KindInt.
func (v Value) IntVal() int64 { return v.i }

// FloatVal returns the float payload. It is only meaningful when Kind is
// KindFloat.
func (v Value) FloatVal() float64 { return v.f }

// TimeVal returns the time payload. It is only meaningful when Kind is
// KindTime.
func (v Value) TimeVal() time.Time { return time.Unix(0, v.i) }

// String renders the value for display. Strings are returned verbatim.
func (v Value) String() string {
	switch v.kind {
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10) // small values render without allocating
	}
	var buf [40]byte
	return string(v.AppendString(buf[:0]))
}

// AppendString appends the String rendering of v to dst and returns the
// extended slice. It is the one canonical rendering: Tuple keys, and
// through them the database digest, are built from it.
func (v Value) AppendString(dst []byte) []byte {
	switch v.kind {
	case KindString:
		return append(dst, v.s...)
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	case KindTime:
		return time.Unix(0, v.i).UTC().AppendFormat(dst, time.RFC3339Nano)
	default:
		return fmt.Appendf(dst, "value(%d)", uint8(v.kind))
	}
}

// Quote renders the value as a literal that the query parser accepts:
// strings are single-quoted with internal quotes doubled; other kinds use
// their natural literal form. A finite float whose String form reads as
// an integer ("2", "-0") gets a ".0" suffix, so the literal reparses as a
// float rather than as the int of the same digits.
func (v Value) Quote() string {
	switch v.kind {
	case KindString:
		out := make([]byte, 0, len(v.s)+2)
		out = append(out, '\'')
		for i := 0; i < len(v.s); i++ {
			if v.s[i] == '\'' {
				out = append(out, '\'', '\'')
			} else {
				out = append(out, v.s[i])
			}
		}
		out = append(out, '\'')
		return string(out)
	case KindFloat:
		s := v.String()
		if !math.IsInf(v.f, 0) && !math.IsNaN(v.f) && !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	}
	return v.String()
}

// Equal reports whether two values are identical in kind and payload.
func (v Value) Equal(w Value) bool { return v == w }

// Compare orders values: first by kind, then by payload. It returns -1, 0,
// or +1. Cross-kind comparisons are stable but carry no semantic meaning;
// they exist so values can be sorted deterministically.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindString:
		switch {
		case v.s < w.s:
			return -1
		case v.s > w.s:
			return 1
		}
		return 0
	case KindFloat:
		switch {
		case v.f < w.f:
			return -1
		case v.f > w.f:
			return 1
		}
		return 0
	default: // KindInt, KindTime
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		}
		return 0
	}
}

// Less reports whether v orders strictly before w under Compare.
func (v Value) Less(w Value) bool { return v.Compare(w) < 0 }

// Hash returns a 64-bit FNV-1a hash of the value, incorporating its kind.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(v.kind)
	h *= prime64
	switch v.kind {
	case KindString:
		for i := 0; i < len(v.s); i++ {
			h ^= uint64(v.s[i])
			h *= prime64
		}
	case KindFloat:
		bits := math.Float64bits(v.f)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= prime64
		}
	default:
		u := uint64(v.i)
		for s := 0; s < 64; s += 8 {
			h ^= (u >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// Parse interprets s as a literal: int, then float, then RFC3339 time, then
// string. It never fails; the fallback kind is string.
func Parse(s string) Value {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return Time(t)
	}
	return String(s)
}
