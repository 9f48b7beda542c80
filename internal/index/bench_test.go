package index

import (
	"testing"

	"sstore/internal/types"
)

func benchKeys(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{types.NewInt(int64(i * 7 % n))}
	}
	return keys
}

func BenchmarkBTreeInsert(b *testing.B) {
	keys := benchKeys(1 << 16)
	b.ResetTimer()
	var bt *BTree
	for i := 0; i < b.N; i++ {
		if i&(1<<16-1) == 0 {
			bt = NewBTree("b", []int{0}, false)
		}
		_ = bt.Insert(keys[i&(1<<16-1)], uint64(i))
	}
}

func BenchmarkBTreeLookup(b *testing.B) {
	bt := NewBTree("b", []int{0}, false)
	keys := benchKeys(1 << 16)
	for i, k := range keys {
		_ = bt.Insert(k, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Lookup(keys[i&(1<<16-1)])
	}
}

func BenchmarkHashIndexInsert(b *testing.B) {
	keys := benchKeys(1 << 16)
	b.ResetTimer()
	var h *HashIndex
	for i := 0; i < b.N; i++ {
		if i&(1<<16-1) == 0 {
			h = NewHashIndex("h", []int{0}, false)
		}
		_ = h.Insert(keys[i&(1<<16-1)], uint64(i))
	}
}

func BenchmarkHashIndexLookup(b *testing.B) {
	h := NewHashIndex("h", []int{0}, false)
	keys := benchKeys(1 << 16)
	for i, k := range keys {
		_ = h.Insert(k, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Lookup(keys[i&(1<<16-1)])
	}
}
