package types

import "testing"

// The //sstore:allocgate markers below pair with //sstore:nomalloc
// annotations; the allocgate analyzer fails the build if either side
// exists without the other.

//sstore:allocgate EncodeValue
//sstore:allocgate EncodeRow
//sstore:allocgate AppendInt64
//sstore:allocgate AppendFloat64
//sstore:allocgate AppendString
func TestEncodeAllocFree(t *testing.T) {
	row := Row{NewInt(42), NewFloat(3.5), NewText("hot"), Null, NewBool(true)}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(1000, func() {
		buf = EncodeRow(buf[:0], row)
		buf = AppendInt64(buf[:0], -77)
		buf = AppendFloat64(buf[:0], 2.25)
		buf = AppendString(buf[:0], "sp_ingest")
	}); n != 0 {
		t.Fatalf("encode path allocates %v/op with spare capacity; it backs every log append and wire frame", n)
	}
}

//sstore:allocgate DecodeRowAppend
func TestDecodeRowAppendAllocFree(t *testing.T) {
	// Fixed-width kinds only: a text value's string is the one
	// allocation the fast path is allowed to make.
	var enc []byte
	enc = EncodeRow(enc, Row{NewInt(7), NewFloat(1.5), NewBool(false), Null, NewTimestamp(99)})
	scratch := make(Row, 0, 8)
	if n := testing.AllocsPerRun(1000, func() {
		row, _, err := DecodeRowAppend(scratch[:0], enc)
		if err != nil || len(row) != 5 {
			t.Fatal("fast-path decode broke")
		}
		scratch = row
	}); n != 0 {
		t.Fatalf("DecodeRowAppend allocates %v/op on fixed-width values over a warm buffer", n)
	}
}

func TestDecodeRowAppendMatchesDecodeRow(t *testing.T) {
	rows := []Row{
		nil,
		{NewInt(-1)},
		{NewInt(1), NewFloat(2.5), NewText("abc"), Null, NewBool(true), NewTimestamp(12345)},
	}
	for _, want := range rows {
		enc := EncodeRow(nil, want)
		got, n, err := DecodeRowAppend(nil, enc)
		if err != nil {
			t.Fatalf("DecodeRowAppend(%v): %v", want, err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d bytes", n, len(enc))
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d values, want %d", len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("value %d: got %v want %v", i, got[i], want[i])
			}
		}
	}
	// Truncated inputs fail without panicking.
	enc := EncodeRow(nil, Row{NewInt(1), NewText("abc")})
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := DecodeRowAppend(nil, enc[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

//sstore:allocgate Value.Hash
//sstore:allocgate fnvUint64
//sstore:allocgate numericHashBits
//sstore:allocgate Value.Equal
//sstore:allocgate Value.Compare
//sstore:allocgate Value.IsNumeric
//sstore:allocgate Value.Float
//sstore:allocgate Value.IsNull
//sstore:allocgate Value.Int
func TestValueHashAllocFree(t *testing.T) {
	i, f, s := NewInt(-42), NewFloat(2.5), NewText("contestant")
	var sink uint64
	if n := testing.AllocsPerRun(1000, func() {
		sink += i.Hash() + s.Hash()
		if !i.Equal(NewInt(-42)) || !f.Equal(NewFloat(2.5)) || s.Equal(NewText("x")) || i.Float() != -42 || i.IsNull() || i.Int() != -42 {
			t.Fatal("comparison broke")
		}
	}); n != 0 {
		t.Fatalf("Value.Hash/Equal allocate %v/op; they back every hash-index probe and GROUP BY row", n)
	}
	_ = sink
}
