package storage

import (
	"testing"

	"sstore/internal/types"
)

// The //sstore:allocgate markers below pair with //sstore:nomalloc
// annotations; the allocgate analyzer fails the build if either side
// exists without the other.

//sstore:allocgate Table.beginMutate
func TestBeginMutateAllocFree(t *testing.T) {
	cat := NewCatalog()
	NewViews(cat)
	schema, _ := types.NewSchema(types.Column{Name: "v", Kind: types.KindInt})
	tbl := NewTable("t", KindTable, schema)
	if err := cat.Create(tbl); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tbl.beginMutate()
		tbl.endMutate()
	}); n != 0 {
		t.Fatalf("mutation bracket fast path allocates %v/op; it runs at the top of every mutation", n)
	}
}

//sstore:allocgate Table.endMutate
func TestEndMutateAllocFree(t *testing.T) {
	// The bracket is exercised as a pair in TestBeginMutateAllocFree;
	// this gate checks the close half alone against a detached table.
	tbl := NewTable("t", KindTable, nil)
	if n := testing.AllocsPerRun(1000, func() {
		tbl.beginMutate()
		tbl.endMutate()
	}); n != 0 {
		t.Fatalf("Table.endMutate allocates %v/op", n)
	}
}

//sstore:allocgate Table.liveRow
//sstore:allocgate Table.versionAt
//sstore:allocgate Table.Get
func TestVersionReadAllocFree(t *testing.T) {
	_, v, tbl := mustFixture(t)
	runTask(v, func() {
		for i := int64(1); i <= 4; i++ {
			if _, err := tbl.Insert(types.Row{types.NewInt(i)}, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	rv := v.Pin()
	defer rv.Close()
	runTask(v, func() {
		if err := tbl.Update(1, types.Row{types.NewInt(9)}, nil); err != nil {
			t.Fatal(err)
		}
	})
	shim, release, err := rv.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, ok := shim.Get(1); !ok {
			t.Fatal("versioned row missing")
		}
		if _, _, ok := tbl.Get(2); !ok {
			t.Fatal("live row missing")
		}
	}); n != 0 {
		t.Fatalf("versioned read path allocates %v/op; chain walks must be allocation-free", n)
	}
}

//sstore:allocgate slots.find
//sstore:allocgate slots.get
func TestSlotLookupAllocFree(t *testing.T) {
	_, _, tbl := mustFixture(t)
	for i := int64(0); i < 64; i++ {
		if _, err := tbl.Insert(types.Row{types.NewInt(i)}, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Delete every other row and compact, so lookups past the first
	// gap fall back from the direct offset to the binary search.
	for tid := uint64(1); tid <= 64; tid += 2 {
		if _, err := tbl.Delete(tid, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(tbl.rows.s) != 32 {
		t.Fatalf("heap has %d slots after compaction, want 32", len(tbl.rows.s))
	}
	if n := testing.AllocsPerRun(1000, func() {
		for _, tid := range []uint64{2, 40, 64} {
			if _, ok := tbl.rows.get(tid); !ok {
				t.Fatalf("tid %d missing", tid)
			}
		}
		if _, ok := tbl.rows.find(65); ok {
			t.Fatal("tid 65 found")
		}
	}); n != 0 {
		t.Fatalf("slot lookup allocates %v/op; it serves every Get and index probe", n)
	}
}

// mustFixture is viewFixture without the secondary index (index
// inserts are irrelevant to the read-path gates).
func mustFixture(t *testing.T) (*Catalog, *Views, *Table) {
	t.Helper()
	cat := NewCatalog()
	v := NewViews(cat)
	schema, err := types.NewSchema(types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("t", KindTable, schema)
	if err := cat.Create(tbl); err != nil {
		t.Fatal(err)
	}
	return cat, v, tbl
}

// Pin itself is not //sstore:nomalloc (its aggregate-capture closure
// is legal there only on first use), but the steady-state pin/close
// cycle must still be allocation-free via the view free list
// (ISSUE 8 satellite).
func TestPinCloseAllocFree(t *testing.T) {
	_, v, _ := mustFixture(t)
	// Warm the free lists: the first pin allocates the view struct.
	v.Pin().Close()
	if n := testing.AllocsPerRun(1000, func() {
		v.Pin().Close()
	}); n != 0 {
		t.Fatalf("steady-state pin/close allocates %v/op; views must recycle through the free list", n)
	}
}
