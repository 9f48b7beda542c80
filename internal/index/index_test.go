package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sstore/internal/types"
)

func intKey(vs ...int64) Key {
	k := make(Key, len(vs))
	for i, v := range vs {
		k[i] = types.NewInt(v)
	}
	return k
}

func TestCompareKeys(t *testing.T) {
	tests := []struct {
		a, b Key
		want int
	}{
		{intKey(1), intKey(2), -1},
		{intKey(2), intKey(2), 0},
		{intKey(3), intKey(2), 1},
		{intKey(1, 2), intKey(1, 3), -1},
		{intKey(1, 9), intKey(2, 0), -1},
		{Key{types.NewText("a"), types.NewInt(2)}, Key{types.NewText("a"), types.NewInt(1)}, 1},
	}
	for i, tt := range tests {
		if got := CompareKeys(tt.a, tt.b); got != tt.want {
			t.Errorf("case %d: CompareKeys(%v,%v) = %d, want %d", i, tt.a, tt.b, got, tt.want)
		}
	}
}

// countedIndex is an Index that also reports its entry count, which
// both implementations do but the table layer never asks through the
// interface.
type countedIndex interface {
	Index
	Len() int
}

// indexContract exercises the Index interface behaviours shared by both
// implementations.
func indexContract(t *testing.T, mk func(unique bool) countedIndex) {
	t.Helper()
	t.Run("insert lookup delete", func(t *testing.T) {
		idx := mk(false)
		for i := int64(0); i < 100; i++ {
			if err := idx.Insert(intKey(i%10), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if idx.Len() != 100 {
			t.Fatalf("Len = %d, want 100", idx.Len())
		}
		got := idx.Lookup(intKey(3))
		if len(got) != 10 {
			t.Fatalf("Lookup(3) returned %d tids, want 10", len(got))
		}
		idx.Delete(intKey(3), 3)
		if len(idx.Lookup(intKey(3))) != 9 {
			t.Error("delete did not remove the entry")
		}
		idx.Delete(intKey(3), 999) // absent tid: no-op
		if idx.Len() != 99 {
			t.Errorf("Len = %d, want 99", idx.Len())
		}
		if idx.Lookup(intKey(42)) != nil {
			t.Error("lookup of absent key should be nil")
		}
	})
	t.Run("unique rejects duplicates", func(t *testing.T) {
		idx := mk(true)
		if err := idx.Insert(intKey(1), 1); err != nil {
			t.Fatal(err)
		}
		if err := idx.Insert(intKey(1), 2); err != ErrDuplicateKey {
			t.Errorf("duplicate insert error = %v, want ErrDuplicateKey", err)
		}
		idx.Delete(intKey(1), 1)
		if err := idx.Insert(intKey(1), 2); err != nil {
			t.Errorf("insert after delete should succeed: %v", err)
		}
	})
	t.Run("composite keys", func(t *testing.T) {
		idx := mk(false)
		if err := idx.Insert(intKey(1, 2), 10); err != nil {
			t.Fatal(err)
		}
		if err := idx.Insert(intKey(1, 3), 11); err != nil {
			t.Fatal(err)
		}
		if got := idx.Lookup(intKey(1, 2)); len(got) != 1 || got[0] != 10 {
			t.Errorf("Lookup(1,2) = %v", got)
		}
	})
}

func TestHashIndexContract(t *testing.T) {
	indexContract(t, func(unique bool) countedIndex {
		return NewHashIndex("h", []int{0}, unique)
	})
}

func TestBTreeContract(t *testing.T) {
	indexContract(t, func(unique bool) countedIndex {
		return NewBTree("b", []int{0}, unique)
	})
}

// scan visits the tree's entries in key order by an in-order walk of
// its nodes.
func scan(bt *BTree, fn func(key Key, tid uint64)) {
	var walk func(n btreeNode)
	walk = func(n btreeNode) {
		switch n := n.(type) {
		case *leafNode:
			for i, k := range n.keys {
				for _, tid := range n.tids[i] {
					fn(k, tid)
				}
			}
		case *innerNode:
			for _, c := range n.children {
				walk(c)
			}
		}
	}
	walk(bt.root)
}

// TestBTreeVsReferenceModel drives the B+tree and a map-based reference
// with the same random operation stream and checks observable
// equivalence — the canonical property test for ordered indexes.
func TestBTreeVsReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bt := NewBTree("b", []int{0}, false)
	ref := make(map[int64][]uint64)
	refLen := 0

	for op := 0; op < 20000; op++ {
		k := int64(rng.Intn(300))
		switch rng.Intn(3) {
		case 0, 1: // insert twice as often as delete
			tid := uint64(op)
			if err := bt.Insert(intKey(k), tid); err != nil {
				t.Fatal(err)
			}
			ref[k] = append(ref[k], tid)
			refLen++
		case 2:
			if tids := ref[k]; len(tids) > 0 {
				victim := tids[rng.Intn(len(tids))]
				bt.Delete(intKey(k), victim)
				for i, x := range tids {
					if x == victim {
						ref[k] = append(tids[:i], tids[i+1:]...)
						break
					}
				}
				refLen--
			}
		}
	}
	if bt.Len() != refLen {
		t.Fatalf("Len = %d, want %d", bt.Len(), refLen)
	}
	for k, want := range ref {
		got := append([]uint64(nil), bt.Lookup(intKey(k))...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		w := append([]uint64(nil), want...)
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Fatalf("key %d: Lookup = %v, want %v", k, got, w)
		}
	}
	// Full scan must be in sorted order and cover exactly refLen
	// entries.
	var prev int64 = -1
	n := 0
	scan(bt, func(key Key, _ uint64) {
		if key[0].Int() < prev {
			t.Fatalf("scan out of order: %d after %d", key[0].Int(), prev)
		}
		prev = key[0].Int()
		n++
	})
	if n != refLen {
		t.Fatalf("scan visited %d entries, want %d", n, refLen)
	}
}

// TestBTreeSortedInsertScan checks ascending and descending bulk loads,
// which stress the split paths differently.
func TestBTreeSortedInsertScan(t *testing.T) {
	for name, gen := range map[string]func(i int) int64{
		"ascending":  func(i int) int64 { return int64(i) },
		"descending": func(i int) int64 { return int64(9999 - i) },
	} {
		t.Run(name, func(t *testing.T) {
			bt := NewBTree("b", []int{0}, true)
			for i := 0; i < 10000; i++ {
				if err := bt.Insert(intKey(gen(i)), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			var prev int64 = -1
			n := 0
			scan(bt, func(key Key, _ uint64) {
				if key[0].Int() != prev+1 {
					t.Fatalf("gap in scan: %d after %d", key[0].Int(), prev)
				}
				prev = key[0].Int()
				n++
			})
			if n != 10000 {
				t.Fatalf("scanned %d entries, want 10000", n)
			}
		})
	}
}

// TestHashKeyQuick: equal keys hash equal.
func TestHashKeyQuick(t *testing.T) {
	f := func(a, b int64) bool {
		k1, k2 := intKey(a, b), intKey(a, b)
		return HashKey(k1) == HashKey(k2) && KeysEqual(k1, k2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
