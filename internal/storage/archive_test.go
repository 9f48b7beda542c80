package storage

import (
	"fmt"
	"sync"
	"testing"

	"sstore/internal/bufferpool"
	"sstore/internal/index"
	"sstore/internal/types"
)

func archiveSite(t *testing.T, frames int) *ArchiveSite {
	t.Helper()
	return &ArchiveSite{Pool: bufferpool.New(frames), Dir: t.TempDir(), Tag: "p0"}
}

func archiveFixture(t *testing.T, frames int) (*Catalog, *Views, *Table) {
	t.Helper()
	cat := NewCatalog()
	v := NewViews(cat)
	schema, err := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindText},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := NewArchiveTable("a", schema, archiveSite(t, frames))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.CloseArchive() })
	if err := cat.Create(tbl); err != nil {
		t.Fatal(err)
	}
	return cat, v, tbl
}

// TestArchiveCRUD drives the full mutation surface through the
// disk-backed heap and checks it behaves exactly like the in-memory
// one: insert, get, scan order, update, delete, index probes.
func TestArchiveCRUD(t *testing.T) {
	_, v, tbl := archiveFixture(t, 4)
	if !tbl.IsArchive() {
		t.Fatal("archive table not flagged")
	}
	if err := tbl.AddIndex(index.NewHashIndex("a_k", []int{0}, true)); err != nil {
		t.Fatal(err)
	}
	var tids []uint64
	runTask(v, func() {
		for i := int64(1); i <= 100; i++ {
			res, err := tbl.Insert(types.Row{types.NewInt(i), types.NewText(fmt.Sprintf("row-%d", i))}, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			tids = append(tids, res.TID)
		}
	})
	if tbl.Len() != 100 {
		t.Fatalf("Len %d, want 100", tbl.Len())
	}
	meta, row, ok := tbl.Get(tids[41])
	if !ok || row[0].Int() != 42 || row[1].Text() != "row-42" {
		t.Fatalf("Get(%d) = %v %v %v", tids[41], meta, row, ok)
	}
	// Scan must return arrival order.
	want := int64(1)
	tbl.Scan(func(_ TupleMeta, r types.Row) bool {
		if r[0].Int() != want {
			t.Fatalf("scan out of order: got %d want %d", r[0].Int(), want)
		}
		want++
		return true
	})
	// Index probe through the seam.
	idx := tbl.IndexOn([]int{0})
	if idx == nil {
		t.Fatal("index lost")
	}
	runTask(v, func() {
		if err := tbl.Update(tids[0], types.Row{types.NewInt(1), types.NewText("rewritten")}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Delete(tids[1], nil); err != nil {
			t.Fatal(err)
		}
	})
	if _, row, ok := tbl.Get(tids[0]); !ok || row[1].Text() != "rewritten" {
		t.Fatalf("update lost: %v %v", row, ok)
	}
	if _, _, ok := tbl.Get(tids[1]); ok {
		t.Fatal("deleted row still live")
	}
	if tbl.Len() != 99 {
		t.Fatalf("Len %d after delete, want 99", tbl.Len())
	}
	// A unique-index violation must not corrupt the heap.
	runTask(v, func() {
		if _, err := tbl.Insert(types.Row{types.NewInt(42), types.NewText("dup")}, 0, nil); err == nil {
			t.Fatal("duplicate key insert succeeded")
		}
	})
	if tbl.Len() != 99 {
		t.Fatalf("Len %d after failed insert, want 99", tbl.Len())
	}
}

// TestArchiveGrowsPastBudget is the storage-level spill check: state
// several times the pool's frame budget stays fully readable, with
// evictions and write-backs actually happening.
func TestArchiveGrowsPastBudget(t *testing.T) {
	_, v, tbl := archiveFixture(t, bufferpool.MinFrames)
	// ~60-byte records, ~130 per 8 KiB page; 4 frames ≈ 520 rows
	// resident. 5000 rows is ~10x the budget.
	const rows = 5000
	runTask(v, func() {
		for i := int64(1); i <= rows; i++ {
			if _, err := tbl.Insert(types.Row{types.NewInt(i), types.NewText(fmt.Sprintf("payload-%06d-payload-payload-payload", i))}, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	if tbl.Len() != rows {
		t.Fatalf("Len %d, want %d", tbl.Len(), rows)
	}
	st := tbl.arch.pool.Stats()
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("no eviction under 10x budget: %+v", st)
	}
	// Every row readable back through the pool.
	n := 0
	tbl.Scan(func(_ TupleMeta, r types.Row) bool {
		n++
		if r[0].Int() != int64(n) {
			t.Fatalf("row %d out of order: %d", n, r[0].Int())
		}
		return true
	})
	if n != rows {
		t.Fatalf("scan saw %d rows, want %d", n, rows)
	}
}

// TestArchiveVersionedReads: pinned readers resolve archive rows
// through the same version-chain protocol as memory tables.
func TestArchiveVersionedReads(t *testing.T) {
	_, v, tbl := archiveFixture(t, 8)
	var tid uint64
	runTask(v, func() {
		res, err := tbl.Insert(types.Row{types.NewInt(1), types.NewText("old")}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		tid = res.TID
	})
	rv := v.Pin()
	defer rv.Close()
	runTask(v, func() {
		if err := tbl.Update(tid, types.Row{types.NewInt(1), types.NewText("new")}, nil); err != nil {
			t.Fatal(err)
		}
	})
	shim, release, err := rv.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, row, ok := shim.Get(tid); !ok || row[1].Text() != "old" {
		t.Fatalf("pinned read = %v %v, want pre-update row", row, ok)
	}
	if _, row, ok := tbl.Get(tid); !ok || row[1].Text() != "new" {
		t.Fatalf("live read = %v %v, want post-update row", row, ok)
	}
}

// TestArchiveCheckpointRestore round-trips the page-file checkpoint:
// flush+copy, wipe the live table, restore, and verify rows, order,
// and index contents (with CRC verification on every restored block).
func TestArchiveCheckpointRestore(t *testing.T) {
	_, v, tbl := archiveFixture(t, bufferpool.MinFrames)
	if err := tbl.AddIndex(index.NewHashIndex("a_k", []int{0}, true)); err != nil {
		t.Fatal(err)
	}
	const rows = 1000
	runTask(v, func() {
		for i := int64(1); i <= rows; i++ {
			if _, err := tbl.Insert(types.Row{types.NewInt(i), types.NewText(fmt.Sprintf("v-%d", i))}, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Holes exercise dead-slot handling in restore.
		if _, err := tbl.Delete(3, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Delete(7, nil); err != nil {
			t.Fatal(err)
		}
	})
	dst := t.TempDir() + "/ckpt.pages"
	if err := tbl.ArchiveCheckpoint(dst); err != nil {
		t.Fatal(err)
	}
	// Snapshot stub round-trip carries the row count.
	img := EncodeTable(nil, tbl)
	runTask(v, func() { tbl.Truncate() })
	if tbl.Len() != 0 {
		t.Fatalf("Len %d after truncate", tbl.Len())
	}
	if _, err := RestoreTable(tbl, img); err != nil {
		t.Fatal(err)
	}
	if !tbl.ArchiveAwaitingPages() {
		t.Fatal("stub restore did not mark pending pages")
	}
	if err := tbl.ArchiveRestore(dst); err != nil {
		t.Fatal(err)
	}
	if tbl.ArchiveAwaitingPages() {
		t.Fatal("pending flag survived restore")
	}
	if tbl.Len() != rows-2 {
		t.Fatalf("Len %d after restore, want %d", tbl.Len(), rows-2)
	}
	if _, _, ok := tbl.Get(3); ok {
		t.Fatal("deleted row resurrected by restore")
	}
	if _, row, ok := tbl.Get(500); !ok || row[1].Text() != "v-500" {
		t.Fatalf("Get(500) after restore = %v %v", row, ok)
	}
	// Inserts after restore must not collide with restored TIDs.
	runTask(v, func() {
		res, err := tbl.Insert(types.Row{types.NewInt(9999), types.NewText("post")}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.TID <= rows {
			t.Fatalf("post-restore TID %d collides with restored range", res.TID)
		}
	})
	// Index rebuilt: probe by key.
	idx := tbl.IndexOn([]int{0})
	if got := idx.Lookup(index.Key{types.NewInt(500)}); len(got) != 1 {
		t.Fatalf("restored index lookup for key 500: %v", got)
	}
}

// TestTruncateUnderPinRace is the satellite-1 regression: concurrent
// pinned readers across a truncate must see either the full
// pre-truncate state or the post-truncate state, never a half-cleared
// table, and the chains must drain after the pins close.
func TestTruncateUnderPinRace(t *testing.T) {
	_, v, tbl := viewFixture(t)
	const rows = 200
	runTask(v, func() {
		for i := int64(0); i < rows; i++ {
			if _, err := tbl.Insert(types.Row{types.NewInt(i)}, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := 0; k < 20; k++ {
				rv := v.Pin()
				got, release, err := rv.Table("t")
				if err != nil {
					t.Error(err)
					rv.Close()
					return
				}
				n := rowCount(t, got)
				release()
				rv.Close()
				if n != 0 && n != rows {
					t.Errorf("pinned reader saw %d rows across truncate, want 0 or %d", n, rows)
					return
				}
			}
		}()
	}
	close(start)
	runTask(v, func() { tbl.Truncate() })
	wg.Wait()
	// After every pin is closed the ring must drain completely.
	runTask(v, func() {})
	if n := v.RetiredLen(); n != 0 {
		t.Errorf("retire ring holds %d entries after truncate race", n)
	}
	if len(tbl.olds) != 0 {
		t.Errorf("%d version chains left after truncate race", len(tbl.olds))
	}
}
