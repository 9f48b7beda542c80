// Package types defines the typed value system shared by every layer of
// the engine: column types, runtime values, rows, schemas, and a stable
// binary encoding used by the command log, snapshots, and the simulated
// PE/EE boundary.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the column types supported by the engine.
type Kind uint8

const (
	// KindNull is the type of the SQL NULL literal before coercion.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE-754 float.
	KindFloat
	// KindText is a UTF-8 string.
	KindText
	// KindBool is a boolean.
	KindBool
	// KindTimestamp is microseconds since the Unix epoch.
	KindTimestamp
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindTimestamp:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindFromName parses a SQL type name into a Kind. It accepts the common
// aliases (INT, BIGINT, INTEGER, FLOAT, DOUBLE, VARCHAR, TEXT, STRING,
// BOOLEAN, BOOL, TIMESTAMP), case-insensitively.
func KindFromName(name string) (Kind, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL":
		return KindFloat, nil
	case "VARCHAR", "TEXT", "STRING", "CHAR":
		return KindText, nil
	case "BOOLEAN", "BOOL":
		return KindBool, nil
	case "TIMESTAMP":
		return KindTimestamp, nil
	default:
		return KindNull, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Value is a single runtime value. The zero Value is NULL.
//
// Value is a small immutable struct passed by value throughout the
// engine; it holds at most one pointer (for text) so rows stay compact
// and comparison never allocates.
type Value struct {
	kind Kind
	i    int64 // int, bool (0/1), timestamp micros
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewText returns a text value.
func NewText(v string) Value { return Value{kind: KindText, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// NewTimestamp returns a timestamp value from microseconds since the
// Unix epoch.
func NewTimestamp(micros int64) Value { return Value{kind: KindTimestamp, i: micros} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
//
//sstore:nomalloc
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics if the value is not an
// integer or timestamp.
//
//sstore:nomalloc
func (v Value) Int() int64 {
	if v.kind != KindInt && v.kind != KindTimestamp {
		//lint:allow hotalloc -- panic message for a caller's type error; never on a valid path
		panic(fmt.Sprintf("types: Int() on %s value", v.kind))
	}
	return v.i
}

// Float returns the float payload, coercing integers. It panics for
// non-numeric kinds.
//
//sstore:nomalloc
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt, KindTimestamp:
		return float64(v.i)
	default:
		//lint:allow hotalloc -- panic message for a caller's type error; never on a valid path
		panic(fmt.Sprintf("types: Float() on %s value", v.kind))
	}
}

// Text returns the string payload. It panics if the value is not text.
func (v Value) Text() string {
	if v.kind != KindText {
		panic(fmt.Sprintf("types: Text() on %s value", v.kind))
	}
	return v.s
}

// Bool returns the boolean payload. It panics if the value is not a
// boolean.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: Bool() on %s value", v.kind))
	}
	return v.i != 0
}

// Timestamp returns the timestamp payload in microseconds since the
// Unix epoch. It panics if the value is not a timestamp.
func (v Value) Timestamp() int64 {
	if v.kind != KindTimestamp {
		panic(fmt.Sprintf("types: Timestamp() on %s value", v.kind))
	}
	return v.i
}

// IsNumeric reports whether the value participates in arithmetic.
//
//sstore:nomalloc
func (v Value) IsNumeric() bool {
	return v.kind == KindInt || v.kind == KindFloat || v.kind == KindTimestamp
}

// String renders the value for display and debugging.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindText:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindTimestamp:
		return strconv.FormatInt(v.i, 10) + "µs"
	default:
		return "<invalid>"
	}
}

// Compare totally orders two values of comparable kinds:
//
//	NULL < everything; int/float/timestamp compare numerically;
//	text compares lexicographically; false < true.
//
// It returns -1, 0, or +1, and an error when the kinds are not mutually
// comparable (e.g. text vs int).
//
//sstore:nomalloc
func (v Value) Compare(o Value) (int, error) {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0, nil
		case v.kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.kind == KindFloat || o.kind == KindFloat {
			a, b := v.Float(), o.Float()
			switch {
			case a < b:
				return -1, nil
			case a > b:
				return 1, nil
			default:
				return 0, nil
			}
		}
		switch {
		case v.i < o.i:
			return -1, nil
		case v.i > o.i:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.kind != o.kind {
		//lint:allow hotalloc -- type error on incomparable kinds; the planner type-checks before any hot path compares
		return 0, fmt.Errorf("types: cannot compare %s with %s", v.kind, o.kind)
	}
	switch v.kind {
	case KindText:
		return strings.Compare(v.s, o.s), nil
	case KindBool:
		switch {
		case v.i < o.i:
			return -1, nil
		case v.i > o.i:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		//lint:allow hotalloc -- type error on incomparable kinds; the planner type-checks before any hot path compares
		return 0, fmt.Errorf("types: cannot compare %s values", v.kind)
	}
}

// MustCompare is Compare for callers that have already type-checked; it
// panics on incomparable kinds.
func (v Value) MustCompare(o Value) int {
	c, err := v.Compare(o)
	if err != nil {
		panic(err)
	}
	return c
}

// Equal reports whether two values are equal under Compare semantics.
// Incomparable kinds are unequal.
//
//sstore:nomalloc
func (v Value) Equal(o Value) bool {
	c, err := v.Compare(o)
	return err == nil && c == 0
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a 64-bit hash of the value, consistent with Equal: any
// two values that compare equal (including mixed int/float/timestamp
// comparisons, which Compare evaluates in float64) hash identically.
// All numerics therefore hash through their float64 image; distinct
// huge ints that collapse to one float64 merely share a hash bucket,
// and the bucket's exact-key check keeps them distinct.
//
// It is FNV-1a over one zero byte for NULL, the 8 little-endian bytes
// of bool and numeric values, and the bytes of text: hash/fnv's New64a
// result, computed inline so no hasher escapes to the heap.
//
//sstore:nomalloc
func (v Value) Hash() uint64 {
	h := uint64(fnvOffset64)
	switch v.kind {
	case KindNull:
		h *= fnvPrime64 // h ^= 0 first: one zero byte
	case KindBool:
		h = fnvUint64(h, uint64(v.i))
	case KindInt, KindTimestamp:
		h = fnvUint64(h, numericHashBits(float64(v.i)))
	case KindFloat:
		h = fnvUint64(h, numericHashBits(v.f))
	case KindText:
		for i := 0; i < len(v.s); i++ {
			h ^= uint64(v.s[i])
			h *= fnvPrime64
		}
	}
	return h
}

// fnvUint64 folds u's 8 little-endian bytes into the FNV-1a state h.
//
//sstore:nomalloc
func fnvUint64(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= u >> (8 * i) & 0xff
		h *= fnvPrime64
	}
	return h
}

// numericHashBits canonicalizes a float for hashing: +0 and -0 compare
// equal, so they must hash equal.
//
//sstore:nomalloc
func numericHashBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

// CoerceTo converts the value to the requested kind when a lossless or
// conventional SQL coercion exists (int→float, int→timestamp, numeric
// widening). NULL coerces to any kind (stays NULL).
func (v Value) CoerceTo(k Kind) (Value, error) {
	if v.kind == k || v.kind == KindNull {
		return v, nil
	}
	switch {
	case k == KindFloat && (v.kind == KindInt || v.kind == KindTimestamp):
		return NewFloat(float64(v.i)), nil
	case k == KindInt && v.kind == KindFloat && v.f == math.Trunc(v.f):
		return NewInt(int64(v.f)), nil
	case k == KindTimestamp && v.kind == KindInt:
		return NewTimestamp(v.i), nil
	case k == KindInt && v.kind == KindTimestamp:
		return NewInt(v.i), nil
	}
	return Null, fmt.Errorf("types: cannot coerce %s to %s", v.kind, k)
}
