package types

import "testing"

// The //sstore:allocgate markers below pair with //sstore:nomalloc
// annotations; the allocgate analyzer fails the build if either side
// exists without the other.

//sstore:allocgate EncodeValue
//sstore:allocgate EncodeRow
func TestEncodeAllocFree(t *testing.T) {
	row := Row{NewInt(42), NewFloat(3.5), NewText("hot"), Null, NewBool(true)}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(1000, func() {
		buf = EncodeRow(buf[:0], row)
	}); n != 0 {
		t.Fatalf("encode path allocates %v/op with spare capacity; it backs every log append and wire frame", n)
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
