package storage

import (
	"fmt"
	"testing"

	"sstore/internal/index"
	"sstore/internal/types"
)

func testSchema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "val", Kind: types.KindText},
	)
}

func row(id int64, val string) types.Row {
	return types.Row{types.NewInt(id), types.NewText(val)}
}

func TestTableInsertScanDelete(t *testing.T) {
	tbl := NewTable("t", KindTable, testSchema())
	var tids []uint64
	for i := int64(0); i < 5; i++ {
		res, err := tbl.Insert(row(i, "x"), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, res.TID)
	}
	if tbl.Len() != 5 || tbl.ActiveLen() != 5 {
		t.Fatalf("Len = %d/%d, want 5/5", tbl.Len(), tbl.ActiveLen())
	}
	// Scan preserves arrival order.
	var seen []int64
	tbl.Scan(func(_ TupleMeta, r types.Row) bool {
		seen = append(seen, r[0].Int())
		return true
	})
	for i, v := range seen {
		if v != int64(i) {
			t.Fatalf("scan order %v", seen)
		}
	}
	deleted, err := tbl.Delete(tids[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	if deleted[0].Int() != 2 {
		t.Errorf("deleted row %v, want id 2", deleted)
	}
	if _, err := tbl.Delete(tids[2], nil); err == nil {
		t.Error("double delete should fail")
	}
	if tbl.Len() != 4 {
		t.Errorf("Len after delete = %d", tbl.Len())
	}
}

func TestTableUpdate(t *testing.T) {
	tbl := NewTable("t", KindTable, testSchema())
	res, err := tbl.Insert(row(1, "old"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(res.TID, row(1, "new"), nil); err != nil {
		t.Fatal(err)
	}
	_, r, ok := tbl.Get(res.TID)
	if !ok || r[1].Text() != "new" {
		t.Errorf("after update row = %v", r)
	}
	if err := tbl.Update(9999, row(1, "x"), nil); err == nil {
		t.Error("update of missing tid should fail")
	}
}

func TestTableSchemaEnforcement(t *testing.T) {
	tbl := NewTable("t", KindTable, testSchema())
	if _, err := tbl.Insert(types.Row{types.NewText("no"), types.NewText("x")}, 0, nil); err == nil {
		t.Error("type mismatch should fail")
	}
	if _, err := tbl.Insert(types.Row{types.NewInt(1)}, 0, nil); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestTableUniqueIndex(t *testing.T) {
	tbl := NewTable("t", KindTable, testSchema())
	if err := tbl.AddIndex(index.NewHashIndex("pk", []int{0}, true)); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(row(1, "a"), 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(row(1, "b"), 0, nil); err == nil {
		t.Error("duplicate key should fail")
	}
	if tbl.Len() != 1 {
		t.Errorf("failed insert must not leave rows, Len = %d", tbl.Len())
	}
	// Index lookup path.
	idx := tbl.IndexOn([]int{0})
	if idx == nil {
		t.Fatal("IndexOn([0]) returned nil")
	}
	tids := idx.Lookup(index.Key{types.NewInt(1)})
	if len(tids) != 1 {
		t.Fatalf("index lookup = %v", tids)
	}
	// Update maintains the index.
	if err := tbl.Update(tids[0], row(2, "a"), nil); err != nil {
		t.Fatal(err)
	}
	if idx.Lookup(index.Key{types.NewInt(1)}) != nil {
		t.Error("old key still in index after update")
	}
	if len(idx.Lookup(index.Key{types.NewInt(2)})) != 1 {
		t.Error("new key missing from index after update")
	}
}

func TestAddIndexBackfillsAndRejectsDuplicates(t *testing.T) {
	tbl := NewTable("t", KindTable, testSchema())
	for i := int64(0); i < 3; i++ {
		if _, err := tbl.Insert(row(i, "x"), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.AddIndex(index.NewBTree("by_id", []int{0}, true)); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if got := tbl.IndexOn([]int{0}).Lookup(index.Key{types.NewInt(i)}); len(got) != 1 {
			t.Errorf("backfilled index lookup of %d = %v, want one tid", i, got)
		}
	}
	if err := tbl.AddIndex(index.NewHashIndex("by_id", []int{0}, false)); err == nil {
		t.Error("duplicate index name should fail")
	}
	// Backfill over duplicate data must fail for unique index.
	tbl2 := NewTable("t2", KindTable, testSchema())
	tbl2.Insert(row(7, "a"), 0, nil)
	tbl2.Insert(row(7, "b"), 0, nil)
	if err := tbl2.AddIndex(index.NewHashIndex("u", []int{0}, true)); err == nil {
		t.Error("unique backfill over duplicates should fail")
	}
}

func TestStreamBatchOperations(t *testing.T) {
	tbl := NewTable("s", KindStream, testSchema())
	for b := int64(1); b <= 3; b++ {
		for i := int64(0); i < 4; i++ {
			if _, err := tbl.Insert(row(b*10+i, "x"), b, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := PendingBatches(tbl); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("PendingBatches = %v", got)
	}
	rows := BatchRows(tbl, 2)
	if len(rows) != 4 || rows[0][0].Int() != 20 {
		t.Fatalf("BatchRows(2) = %v", rows)
	}
	if n := DeleteBatch(tbl, 2, nil); n != 4 {
		t.Fatalf("DeleteBatch removed %d, want 4", n)
	}
	if got := PendingBatches(tbl); len(got) != 2 {
		t.Fatalf("PendingBatches after delete = %v", got)
	}
	if tbl.Len() != 8 {
		t.Errorf("Len = %d, want 8", tbl.Len())
	}
}

func TestCompaction(t *testing.T) {
	tbl := NewTable("t", KindTable, testSchema())
	var tids []uint64
	for i := int64(0); i < 200; i++ {
		res, _ := tbl.Insert(row(i, "x"), 0, nil)
		tids = append(tids, res.TID)
	}
	for _, tid := range tids[:150] {
		if _, err := tbl.Delete(tid, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(tbl.rows.s); n > 2*tbl.Len()+1 {
		t.Errorf("heap not compacted: %d slots for %d rows", n, tbl.Len())
	}
	// Scan still sees the survivors in order.
	var seen []int64
	tbl.Scan(func(_ TupleMeta, r types.Row) bool {
		seen = append(seen, r[0].Int())
		return true
	})
	if len(seen) != 50 || seen[0] != 150 {
		t.Fatalf("post-compaction scan = %v...", seen[:3])
	}
}

func TestRestoreRow(t *testing.T) {
	tbl := NewTable("t", KindTable, testSchema())
	res, _ := tbl.Insert(row(5, "x"), 0, nil)
	meta, data, _ := tbl.Get(res.TID)
	if _, err := tbl.Delete(res.TID, nil); err != nil {
		t.Fatal(err)
	}
	if err := tbl.RestoreRow(meta, data); err != nil {
		t.Fatal(err)
	}
	if err := tbl.RestoreRow(meta, data); err == nil {
		t.Error("restoring a live tid should fail")
	}
	_, got, ok := tbl.Get(res.TID)
	if !ok || got[0].Int() != 5 {
		t.Errorf("restored row = %v, %v", got, ok)
	}
	// New inserts must not reuse the restored TID.
	res2, _ := tbl.Insert(row(6, "y"), 0, nil)
	if res2.TID <= res.TID {
		t.Errorf("TID reuse: %d <= %d", res2.TID, res.TID)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tbl := NewTable("Votes", KindTable, testSchema())
	if err := c.Create(tbl); err != nil {
		t.Fatal(err)
	}
	if err := c.Create(NewTable("votes", KindTable, testSchema())); err == nil {
		t.Error("case-insensitive duplicate should fail")
	}
	got, err := c.Get("VOTES")
	if err != nil || got != tbl {
		t.Errorf("Get = %v, %v", got, err)
	}
	if _, err := c.Get("nope"); err == nil {
		t.Error("missing table should error")
	}
	s := NewTable("s1", KindStream, testSchema())
	c.Create(s)
	if len(c.StreamsWithData()) != 0 {
		t.Error("empty stream should not be reported")
	}
	s.Insert(row(1, "x"), 1, nil)
	if len(c.StreamsWithData()) != 1 {
		t.Error("stream with data should be reported")
	}
	if names := c.Names(); fmt.Sprint(names) != "[Votes s1]" {
		t.Errorf("Names = %v", names)
	}
}

// TestChurnKeepsHeapSmall runs 10 000 insert/delete cycles against the
// three shapes that churn in S-Store — a one-row table, a stream
// garbage-collected batch by batch, and a slide-1 window — and checks
// after every step that the heap holds at most 2·live+1 slots: deleted
// tuples do not pile up in front of the live ones.
func TestChurnKeepsHeapSmall(t *testing.T) {
	check := func(t *testing.T, tbl *Table, step int) {
		t.Helper()
		if n, live := len(tbl.rows.s), tbl.Len(); n > 2*live+1 {
			t.Fatalf("step %d: %d heap slots for %d live rows", step, n, live)
		}
	}
	const cycles = 10000
	t.Run("one-row table", func(t *testing.T) {
		tbl := NewTable("t", KindTable, testSchema())
		prev, _ := tbl.Insert(row(0, "x"), 0, nil)
		for i := int64(1); i <= cycles; i++ {
			res, err := tbl.Insert(row(i, "x"), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(t, tbl, int(i))
			if _, err := tbl.Delete(prev.TID, nil); err != nil {
				t.Fatal(err)
			}
			check(t, tbl, int(i))
			prev = res
		}
	})
	t.Run("stream", func(t *testing.T) {
		tbl := NewTable("s", KindStream, testSchema())
		for b := int64(1); b <= cycles; b++ {
			for i := int64(0); i < 2; i++ {
				if _, err := tbl.Insert(row(i, "x"), b, nil); err != nil {
					t.Fatal(err)
				}
				check(t, tbl, int(b))
			}
			if n := DeleteBatch(tbl, b-1, nil); b > 1 && n != 2 {
				t.Fatalf("batch %d: DeleteBatch removed %d, want 2", b-1, n)
			}
			check(t, tbl, int(b))
		}
	})
	t.Run("slide-1 window", func(t *testing.T) {
		tbl, err := NewWindowTable("w", winSchema(), WindowSpec{Size: 4, Slide: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < cycles; i++ {
			if _, err := tbl.Insert(winRow(i, i), 0, nil); err != nil {
				t.Fatal(err)
			}
			check(t, tbl, int(i))
		}
		if got := activeValues(tbl); len(got) != 4 || got[0] != cycles-4 {
			t.Fatalf("window content = %v, want the last 4 values", got)
		}
	})
}
