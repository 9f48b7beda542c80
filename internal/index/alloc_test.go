package index

import (
	"testing"

	"sstore/internal/types"
)

// The //sstore:allocgate markers below pair with //sstore:nomalloc
// annotations; the allocgate analyzer fails the build if either side
// exists without the other.

//sstore:allocgate HashKey
//sstore:allocgate KeysEqual
//sstore:allocgate HashIndex.Lookup
func TestHashLookupAllocFree(t *testing.T) {
	idx := NewHashIndex("h", []int{0, 1}, false)
	for i := int64(0); i < 64; i++ {
		if err := idx.Insert(Key{types.NewInt(i % 8), types.NewText("k")}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	warm := Key{types.NewInt(3), types.NewText("k")}
	var sink uint64
	if n := testing.AllocsPerRun(1000, func() {
		sink += HashKey(warm)
		if tids := idx.Lookup(warm); len(tids) != 8 {
			t.Fatalf("Lookup found %d tids, want 8", len(tids))
		}
	}); n != 0 {
		t.Fatalf("hash probe allocates %v/op on a warm key; every index point lookup pays it", n)
	}
	_ = sink
}
