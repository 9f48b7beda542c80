package storage

import (
	"sync"
	"testing"

	"sstore/internal/index"
	"sstore/internal/types"
)

func viewFixture(t *testing.T) (*Catalog, *Views, *Table) {
	t.Helper()
	cat := NewCatalog()
	v := NewViews(cat)
	schema, err := types.NewSchema(types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("t", KindTable, schema)
	if err := tbl.AddIndex(index.NewHashIndex("t_v", []int{0}, false)); err != nil {
		t.Fatal(err)
	}
	if err := cat.Create(tbl); err != nil {
		t.Fatal(err)
	}
	return cat, v, tbl
}

// runTask simulates one partition task executing fn.
func runTask(v *Views, fn func()) {
	v.BeginTask()
	fn()
	v.EndTask()
}

func rowCount(t *testing.T, tbl *Table) int {
	t.Helper()
	n := 0
	tbl.Scan(func(TupleMeta, types.Row) bool { n++; return true })
	return n
}

// TestViewPinsBoundaryAndVersions: a pinned view keeps the boundary
// state across later mutations by resolving row versions; a fresh pin
// sees the new state live; closing the last view lets the next task
// boundary reclaim the superseded versions.
func TestViewPinsBoundaryAndVersions(t *testing.T) {
	_, v, tbl := viewFixture(t)
	runTask(v, func() {
		if _, err := tbl.Insert(types.Row{types.NewInt(1)}, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
	rv := v.Pin()
	defer rv.Close()
	if rv.Epoch() != 1 {
		t.Fatalf("epoch %d, want 1", rv.Epoch())
	}
	// Live resolution before any post-pin write.
	got, release, err := rv.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got != tbl {
		t.Error("pre-write resolution should be the live table")
	}
	if rowCount(t, got) != 1 {
		t.Errorf("view rows = %d, want 1", rowCount(t, got))
	}
	release()
	// A later task mutates: the view must switch to a versioned shim
	// showing the old state; a fresh view sees the new state live.
	runTask(v, func() {
		if _, err := tbl.Insert(types.Row{types.NewInt(2)}, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Update(1, types.Row{types.NewInt(7)}, nil); err != nil {
			t.Fatal(err)
		}
	})
	got, release, err = rv.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got == tbl {
		t.Error("post-write resolution should be a versioned shim, not the live table")
	}
	if rowCount(t, got) != 1 {
		t.Errorf("shim rows = %d, want 1", rowCount(t, got))
	}
	// The shim resolves the pre-update value and hides the post-pin
	// insert entirely.
	if _, row, ok := got.Get(1); !ok || row[0].Int() != 1 {
		t.Errorf("shim Get(1) = %v ok=%v, want pre-update value 1", row, ok)
	}
	if _, _, ok := got.Get(2); ok {
		t.Error("shim sees post-pin insert")
	}
	// Shims carry no indexes: probes fall back to filtered scans.
	if n := len(got.Indexes()); n != 0 {
		t.Errorf("shim has %d indexes, want 0", n)
	}
	release()
	rv2 := v.Pin()
	got2, release2, err := rv2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got2 != tbl || rowCount(t, got2) != 2 {
		t.Errorf("fresh view should read live (2 rows), got %d", rowCount(t, got2))
	}
	release2()
	rv2.Close()
	rv.Close()
	// With every view closed, the next boundary drains the retire ring.
	runTask(v, func() {})
	if n := v.RetiredLen(); n != 0 {
		t.Errorf("%d versions still retained after last view closed", n)
	}
}

// TestViewVersionSharedAcrossPins: two views at the same boundary share
// the version chain; only one version is pushed per (row, write task).
func TestViewVersionSharedAcrossPins(t *testing.T) {
	_, v, tbl := viewFixture(t)
	runTask(v, func() { tbl.Insert(types.Row{types.NewInt(1)}, 0, nil) })
	a, b := v.Pin(), v.Pin()
	defer a.Close()
	defer b.Close()
	runTask(v, func() { tbl.Update(1, types.Row{types.NewInt(2)}, nil) })
	ta, ra, err := a.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	tb, rb, err := b.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, row, ok := ta.Get(1); !ok || row[0].Int() != 1 {
		t.Errorf("view a sees %v, want 1", row)
	}
	if _, row, ok := tb.Get(1); !ok || row[0].Int() != 1 {
		t.Errorf("view b sees %v, want 1", row)
	}
	ra()
	rb()
	if n := v.RetiredLen(); n != 1 {
		t.Errorf("%d retired versions, want 1 (one push per row per task)", n)
	}
	// A second write in a later task supersedes a version installed
	// AFTER both pins (maxPinned < installedAt): no reader can see it,
	// so nothing more is pushed.
	runTask(v, func() { tbl.Update(1, types.Row{types.NewInt(3)}, nil) })
	if n := v.RetiredLen(); n != 1 {
		t.Errorf("%d retired versions after an unobservable update, want 1", n)
	}
	if _, row, _ := ta.Get(1); row[0].Int() != 1 {
		t.Errorf("view a moved to %v after second update", row)
	}
}

// TestViewWindowVersions: versioned reads of window tables resolve
// staged/active flags at the pinned boundary so ActiveLen and scans
// behave.
func TestViewWindowVersions(t *testing.T) {
	cat := NewCatalog()
	v := NewViews(cat)
	schema, _ := types.NewSchema(types.Column{Name: "v", Kind: types.KindInt})
	w, err := NewWindowTable("w", schema, WindowSpec{Size: 2, Slide: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Create(w); err != nil {
		t.Fatal(err)
	}
	if err := w.MaintainAggregate(AggSum, 0); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		runTask(v, func() { w.Insert(types.Row{types.NewInt(i)}, 0, nil) })
	}
	// Window of size 2 slide 1 over [1 2 3] → active {2, 3}, sum 5.
	rv := v.Pin()
	defer rv.Close()
	if val, ok := rv.MaintainedValue("w", AggSum, 0); !ok || val.Int() != 5 {
		t.Fatalf("captured sum %v ok=%v, want 5", val, ok)
	}
	runTask(v, func() { w.Insert(types.Row{types.NewInt(10)}, 0, nil) })
	// The shim must show the pinned window: 2 active rows, 2+3.
	img, release, err := rv.Table("w")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if img == w {
		t.Fatal("expected a versioned shim")
	}
	if img.ActiveLen() != 2 {
		t.Errorf("shim ActiveLen %d, want 2", img.ActiveLen())
	}
	sum := int64(0)
	img.Scan(func(_ TupleMeta, row types.Row) bool { sum += row[0].Int(); return true })
	if sum != 5 {
		t.Errorf("shim visible sum %d, want 5", sum)
	}
	// Captured aggregate is still the pin-time value.
	if val, _ := rv.MaintainedValue("w", AggSum, 0); val.Int() != 5 {
		t.Errorf("captured sum moved to %v", val)
	}
	// Unknown aggregate: not captured.
	if _, ok := rv.MaintainedValue("w", AggMax, 0); ok {
		t.Error("uncaptured aggregate reported ok")
	}
}

// TestViewTruncateUnderPin: truncation under a pin routes through the
// version chains — every live row's pre-image is preserved and
// tombstoned — so the pinned view keeps seeing the pre-truncate rows;
// closing the view lets the retire ring drain the chains.
func TestViewTruncateUnderPin(t *testing.T) {
	_, v, tbl := viewFixture(t)
	runTask(v, func() {
		tbl.Insert(types.Row{types.NewInt(1)}, 0, nil)
		tbl.Insert(types.Row{types.NewInt(2)}, 0, nil)
	})
	rv := v.Pin()
	runTask(v, func() {
		tbl.Truncate()
		tbl.Insert(types.Row{types.NewInt(9)}, 0, nil)
	})
	got, release, err := rv.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if n := rowCount(t, got); n != 2 {
		t.Errorf("pinned view sees %d rows across a truncate, want 2", n)
	}
	if _, _, ok := got.Get(1); !ok {
		t.Error("pinned view lost a pre-truncate row")
	}
	release()
	rv.Close()
	runTask(v, func() {})
	if n := v.RetiredLen(); n != 0 {
		t.Errorf("retire ring holds %d entries after last unpin", n)
	}
	if len(tbl.olds) != 0 {
		t.Errorf("version chains survived last unpin: %d", len(tbl.olds))
	}
}

// TestViewConcurrentPinsAndWrites is a registry-level stress run under
// the race detector: a writer task loop against concurrent pin/read/
// close loops; every read sees a full boundary (count equals the value
// written by some completed task).
func TestViewConcurrentPinsAndWrites(t *testing.T) {
	_, v, tbl := viewFixture(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rv := v.Pin()
				got, release, err := rv.Table("t")
				if err != nil {
					t.Error(err)
					rv.Close()
					return
				}
				n := rowCount(t, got)
				release()
				// Read the epoch before Close: a closed view is recycled
				// and the next Pin overwrites it.
				epoch := rv.Epoch()
				rv.Close()
				if uint64(n) > epoch {
					t.Errorf("view at epoch %d saw %d rows", epoch, n)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		runTask(v, func() {
			if _, err := tbl.Insert(types.Row{types.NewInt(int64(i))}, 0, nil); err != nil {
				t.Error(err)
			}
		})
	}
	close(stop)
	wg.Wait()
	if n := rowCount(t, tbl); n != 500 {
		t.Errorf("final rows %d, want 500", n)
	}
}

// TestViewMissingTable: resolution reports unknown tables.
func TestViewMissingTable(t *testing.T) {
	_, v, _ := viewFixture(t)
	rv := v.Pin()
	defer rv.Close()
	if _, _, err := rv.Table("nope"); err == nil {
		t.Error("resolving a missing table should error")
	}
}
