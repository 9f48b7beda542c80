package types

import (
	"hash/fnv"
	"math"
	"testing"
)

// fnvReference is Value.Hash as the hash/fnv hasher computes it, kept
// independent of the package's own helpers: the bytes, and their
// order, that hash indexes, COUNT(DISTINCT) and sparklike's
// partitioning are laid out by.
func fnvReference(v Value) uint64 {
	h := fnv.New64a()
	word := func(u uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	float := func(f float64) uint64 {
		if f == 0 { // +0 and -0 compare equal
			return 0
		}
		return math.Float64bits(f)
	}
	switch v.kind {
	case KindNull:
		h.Write([]byte{0})
	case KindBool:
		word(uint64(v.i))
	case KindInt, KindTimestamp:
		word(float(float64(v.i)))
	case KindFloat:
		word(float(v.f))
	case KindText:
		h.Write([]byte(v.s))
	}
	return h.Sum64()
}

func TestValueHashMatchesFNV(t *testing.T) {
	vals := []Value{
		Null,
		NewBool(false), NewBool(true),
		NewInt(0), NewInt(-1), NewInt(-9_000_000_000), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewTimestamp(0), NewTimestamp(1_700_000_000_000_000),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(3), NewFloat(-2.5), NewFloat(math.Inf(1)),
		NewText(""), NewText("a"), NewText("contestant 7"), NewText("Zürich ☃ 東京"),
	}
	for _, v := range vals {
		if got, want := v.Hash(), fnvReference(v); got != want {
			t.Errorf("%v (%s): Hash = %#x, hash/fnv = %#x", v, v.Kind(), got, want)
		}
	}
}
