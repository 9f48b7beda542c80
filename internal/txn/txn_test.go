package txn

import (
	"fmt"
	"reflect"
	"testing"

	"sstore/internal/ee"
	"sstore/internal/index"
	"sstore/internal/storage"
	"sstore/internal/types"
)

func schema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindText},
	)
}

func row(id int64, v string) types.Row {
	return types.Row{types.NewInt(id), types.NewText(v)}
}

func tableValues(t *storage.Table) []int64 {
	var out []int64
	t.Scan(func(_ storage.TupleMeta, r types.Row) bool {
		out = append(out, r[0].Int())
		return true
	})
	return out
}

func TestRollbackInsert(t *testing.T) {
	tbl := storage.NewTable("t", storage.KindTable, schema())
	tx := New(1)
	if _, err := tbl.Insert(row(1, "a"), 0, tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 {
		t.Errorf("rows after rollback = %d", tbl.Len())
	}
	if tx.Status() != StatusAborted {
		t.Errorf("status = %v", tx.Status())
	}
}

func TestRollbackDelete(t *testing.T) {
	tbl := storage.NewTable("t", storage.KindTable, schema())
	res, _ := tbl.Insert(row(1, "a"), 0, nil)
	tx := New(1)
	if _, err := tbl.Delete(res.TID, tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	_, r, ok := tbl.Get(res.TID)
	if !ok || r[1].Text() != "a" {
		t.Errorf("row not restored: %v %v", r, ok)
	}
}

func TestRollbackUpdate(t *testing.T) {
	tbl := storage.NewTable("t", storage.KindTable, schema())
	res, _ := tbl.Insert(row(1, "old"), 0, nil)
	tx := New(1)
	if err := tbl.Update(res.TID, row(1, "new"), tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	_, r, _ := tbl.Get(res.TID)
	if r[1].Text() != "old" {
		t.Errorf("update not rolled back: %v", r)
	}
}

func TestRollbackMixedSequence(t *testing.T) {
	tbl := storage.NewTable("t", storage.KindTable, schema())
	for i := int64(1); i <= 3; i++ {
		tbl.Insert(row(i, "x"), 0, nil)
	}
	before := fmt.Sprint(tableValues(tbl))

	tx := New(1)
	res, _ := tbl.Insert(row(10, "new"), 0, tx) // insert
	var firstTID uint64
	tbl.Scan(func(meta storage.TupleMeta, r types.Row) bool {
		firstTID = meta.TID
		return false
	})
	tbl.Delete(firstTID, tx)              // delete an old row
	tbl.Update(res.TID, row(11, "u"), tx) // update the new row
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	after := fmt.Sprint(tableValues(tbl))
	if before != after {
		t.Errorf("table after rollback = %v, want %v", after, before)
	}
}

func TestCommitClearsUndo(t *testing.T) {
	tbl := storage.NewTable("t", storage.KindTable, schema())
	tx := New(1)
	tbl.Insert(row(1, "a"), 0, tx)
	if tx.Mutations() != 1 {
		t.Errorf("mutations = %d", tx.Mutations())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.Status() != StatusCommitted {
		t.Errorf("status = %v", tx.Status())
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit should fail")
	}
	if err := tx.Rollback(); err == nil {
		t.Error("rollback after commit should fail")
	}
}

func TestWindowRollbackRestoresExactState(t *testing.T) {
	// The §2.4 requirement: if TE(i,j+1) aborts, the shared window
	// must return to its state before TE(i,j+1) began.
	w, err := storage.NewWindowTable("w", schema(), storage.WindowSpec{Size: 3, Slide: 1})
	if err != nil {
		t.Fatal(err)
	}
	// TE 1: fill the window (commits).
	tx1 := New(1)
	tx1.MarkWindow(w)
	for i := int64(1); i <= 3; i++ {
		if _, err := w.Insert(row(i, "x"), 0, tx1); err != nil {
			t.Fatal(err)
		}
	}
	tx1.Commit()
	contentBefore := fmt.Sprint(tableValues(w))
	markBefore := w.Window().Mark()
	stagedBefore := w.Len() - w.ActiveLen()

	// TE 2: slides the window, then aborts.
	tx2 := New(2)
	tx2.MarkWindow(w)
	if _, err := w.Insert(row(4, "x"), 0, tx2); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tableValues(w)) == contentBefore {
		t.Fatal("insert should have slid the window")
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(tableValues(w)); got != contentBefore {
		t.Errorf("window content = %v, want %v", got, contentBefore)
	}
	if mark := w.Window().Mark(); !reflect.DeepEqual(mark, markBefore) {
		t.Errorf("window bookkeeping = %+v, want %+v", mark, markBefore)
	}
	if staged := w.Len() - w.ActiveLen(); staged != stagedBefore {
		t.Errorf("staged = %d, want %d", staged, stagedBefore)
	}
	// The window keeps working after the rollback.
	tx3 := New(3)
	tx3.MarkWindow(w)
	if _, err := w.Insert(row(5, "x"), 0, tx3); err != nil {
		t.Fatal(err)
	}
	tx3.Commit()
	if got := fmt.Sprint(tableValues(w)); got != "[2 3 5]" {
		t.Errorf("window after redo = %v", got)
	}
}

func TestRollbackThroughExecutor(t *testing.T) {
	// End-to-end: SQL mutations through the EE roll back atomically.
	cat := storage.NewCatalog()
	exec := ee.NewExecutor(cat)
	ctx := &ee.ExecCtx{}
	for _, ddl := range []string{
		"CREATE TABLE accounts (id BIGINT PRIMARY KEY, balance BIGINT)",
		"INSERT INTO accounts VALUES (1, 100), (2, 50)",
	} {
		if _, err := exec.Execute(ddl, nil, ctx); err != nil {
			t.Fatal(err)
		}
	}
	tx := New(1)
	txCtx := &ee.ExecCtx{Txn: tx}
	for _, stmt := range []string{
		"UPDATE accounts SET balance = balance - 30 WHERE id = 1",
		"UPDATE accounts SET balance = balance + 30 WHERE id = 2",
		"INSERT INTO accounts VALUES (3, 999)",
		"DELETE FROM accounts WHERE id = 2",
	} {
		if _, err := exec.Execute(stmt, nil, txCtx); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	res, err := exec.Execute("SELECT id, balance FROM accounts ORDER BY id", nil, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1].Int() != 100 || res.Rows[1][1].Int() != 50 {
		t.Errorf("balances = %v", res.Rows)
	}
}

func TestRollbackUniqueIndexConsistency(t *testing.T) {
	cat := storage.NewCatalog()
	exec := ee.NewExecutor(cat)
	ctx := &ee.ExecCtx{}
	exec.Execute("CREATE TABLE t (id BIGINT PRIMARY KEY)", nil, ctx)
	exec.Execute("INSERT INTO t VALUES (1)", nil, ctx)

	tx := New(1)
	txCtx := &ee.ExecCtx{Txn: tx}
	if _, err := exec.Execute("DELETE FROM t WHERE id = 1", nil, txCtx); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Execute("INSERT INTO t VALUES (1)", nil, txCtx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Index must allow exactly one row with id 1 and reject another.
	if _, err := exec.Execute("INSERT INTO t VALUES (1)", nil, ctx); err == nil {
		t.Error("unique index inconsistent after rollback")
	}
	res, _ := exec.Execute("SELECT COUNT(*) FROM t", nil, ctx)
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

// aggSnapshot reads every maintained aggregate of a window table.
func aggSnapshot(t *testing.T, w *storage.Table) []types.Value {
	t.Helper()
	var out []types.Value
	for _, a := range w.MaintainedAggregates() {
		v, ok := w.MaintainedAggregate(a.Fn(), a.Col())
		if !ok {
			t.Fatalf("aggregate %s(%d) vanished", a.Fn(), a.Col())
		}
		out = append(out, v)
	}
	return out
}

// TestAbortRestoresWindowAggregates: a TE that slides a window with
// maintained aggregates and then aborts must leave the accumulators
// exactly as they were — physical undo restores the rows and deques,
// and the WindowMark restores the aggregate state (§2.4).
func TestAbortRestoresWindowAggregates(t *testing.T) {
	intSchema := types.MustSchema(
		types.Column{Name: "ts", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindInt},
	)
	w, err := storage.NewWindowTable("w", intSchema, storage.WindowSpec{Size: 3, Slide: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []storage.AggFunc{storage.AggCount, storage.AggSum, storage.AggAvg, storage.AggMin, storage.AggMax} {
		if err := w.MaintainAggregate(fn, 1); err != nil {
			t.Fatal(err)
		}
	}
	irow := func(i int64) types.Row { return types.Row{types.NewInt(i), types.NewInt(i * 3)} }
	for i := int64(0); i < 5; i++ {
		if _, err := w.Insert(irow(i), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := aggSnapshot(t, w)
	beforeMark := w.Window().Mark()

	tx := New(1)
	tx.MarkWindow(w)
	// Enough inserts to slide twice: activations, expiries (including
	// the current MIN and MAX), the lot.
	for i := int64(5); i < 10; i++ {
		if _, err := w.Insert(irow(i), 0, tx); err != nil {
			t.Fatal(err)
		}
	}
	if reflect.DeepEqual(w.Window().Mark(), beforeMark) {
		t.Fatal("TE should have slid the window")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if mark := w.Window().Mark(); !reflect.DeepEqual(mark, beforeMark) {
		t.Errorf("window bookkeeping = %+v, want %+v", mark, beforeMark)
	}
	after := aggSnapshot(t, w)
	for i := range before {
		if !before[i].Equal(after[i]) && !(before[i].IsNull() && after[i].IsNull()) {
			t.Errorf("aggregate %d: %v after abort, want %v", i, after[i], before[i])
		}
	}
	// The window must keep evolving exactly like one that never saw
	// the aborted TE.
	ref, _ := storage.NewWindowTable("ref", intSchema, storage.WindowSpec{Size: 3, Slide: 2})
	ref.MaintainAggregate(storage.AggSum, 1)
	for i := int64(0); i < 5; i++ {
		ref.Insert(irow(i), 0, nil)
	}
	for i := int64(20); i < 26; i++ {
		r1, err1 := w.Insert(irow(i), 0, nil)
		r2, err2 := ref.Insert(irow(i), 0, nil)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1.Slid != r2.Slid {
			t.Fatalf("insert %d: slid %v, reference %v", i, r1.Slid, r2.Slid)
		}
	}
	got, _ := w.MaintainedAggregate(storage.AggSum, 1)
	want, _ := ref.MaintainedAggregate(storage.AggSum, 1)
	if !got.Equal(want) {
		t.Errorf("post-abort SUM = %v, reference %v", got, want)
	}
}

// TestWindowMarkResetRoundTrip: Mark before a TE, mutate, Reset after
// physical undo — the documented abort protocol — round-trips the
// aggregate accumulators through the undo-driven deque restores.
func TestWindowMarkResetRoundTrip(t *testing.T) {
	intSchema := types.MustSchema(
		types.Column{Name: "ts", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindFloat},
	)
	w, err := storage.NewWindowTable("w", intSchema, storage.WindowSpec{TimeBased: true, Size: 10, Slide: 5, TimeColumn: 0})
	if err != nil {
		t.Fatal(err)
	}
	w.MaintainAggregate(storage.AggSum, 1)
	w.MaintainAggregate(storage.AggMax, 1)
	frow := func(ts int64, v float64) types.Row { return types.Row{types.NewInt(ts), types.NewFloat(v)} }
	w.Insert(frow(0, 0.1), 0, nil)
	w.Insert(frow(7, 0.2), 0, nil)
	before := aggSnapshot(t, w)

	tx := New(7)
	tx.MarkWindow(w)
	w.Insert(frow(13, 0.7), 0, tx) // slides, expires ts=0
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	after := aggSnapshot(t, w)
	for i := range before {
		if !before[i].Equal(after[i]) {
			t.Errorf("aggregate %d: %v after Mark/Reset round-trip, want %v", i, after[i], before[i])
		}
	}
	if got := tableValues(w); len(got) != 2 {
		t.Errorf("window rows after abort = %v", got)
	}
}

// TestAbortRestoresOriginalRows: undo keeps a deleted or replaced row
// itself rather than a copy, so an aborted DELETE and an aborted UPDATE
// must restore rows equal to the originals that the table's indexes
// still find by their old keys — and an UPDATE's new key must be gone.
func TestAbortRestoresOriginalRows(t *testing.T) {
	cat := storage.NewCatalog()
	exec := ee.NewExecutor(cat)
	ctx := &ee.ExecCtx{}
	for _, stmt := range []string{
		"CREATE TABLE acct (id BIGINT PRIMARY KEY, owner VARCHAR, balance BIGINT)",
		"CREATE INDEX acct_owner ON acct (owner)",
		"INSERT INTO acct VALUES (1, 'ann', 100), (2, 'bob', 50), (3, 'cat', 7)",
	} {
		if _, err := exec.Execute(stmt, nil, ctx); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() []types.Row {
		res, err := exec.Execute("SELECT id, owner, balance FROM acct ORDER BY id", nil, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	before := snapshot()
	for _, stmts := range [][]string{
		{"DELETE FROM acct WHERE id = 2", "DELETE FROM acct WHERE owner = 'cat'"},
		{"UPDATE acct SET owner = 'zed', balance = balance + 1 WHERE id = 1"},
		{"UPDATE acct SET balance = 0 WHERE owner = 'bob'", "DELETE FROM acct WHERE id = 2"},
	} {
		tx := New(1)
		txCtx := &ee.ExecCtx{Txn: tx}
		for _, stmt := range stmts {
			if _, err := exec.Execute(stmt, nil, txCtx); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		after := snapshot()
		if len(after) != len(before) {
			t.Fatalf("%v: rows after abort = %v, want %v", stmts, after, before)
		}
		for i := range before {
			if !after[i].Equal(before[i]) {
				t.Fatalf("%v: row %d after abort = %v, want %v", stmts, i, after[i], before[i])
			}
		}
		for _, r := range before {
			for _, probe := range []struct {
				sql string
				key types.Value
			}{
				{"SELECT id, owner, balance FROM acct WHERE id = ?", r[0]},
				{"SELECT id, owner, balance FROM acct WHERE owner = ?", r[1]},
			} {
				res, err := exec.Execute(probe.sql, []types.Value{probe.key}, ctx)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != 1 || !res.Rows[0].Equal(r) {
					t.Fatalf("%v: probe %q %v = %v, want %v", stmts, probe.sql, probe.key, res.Rows, r)
				}
			}
		}
		res, err := exec.Execute("SELECT id FROM acct WHERE owner = 'zed'", nil, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("%v: aborted update's key still indexed: %v", stmts, res.Rows)
		}
	}
}

// TestRollbackPastCompaction: a TE deletes three rows in four of a
// 100 000-row indexed table, so the heap compacts twice mid-TE (once
// half its slots are dead), then aborts. Rollback restores 75 000 rows
// whose slots are gone; every row must come back in TID order for
// Scan, and be found by Get and by an index probe. Restoring each row
// by an O(n) insertion would take minutes at this size.
func TestRollbackPastCompaction(t *testing.T) {
	const n = 100000
	tbl := storage.NewTable("t", storage.KindTable, schema())
	if err := tbl.AddIndex(index.NewHashIndex("pk", []int{0}, true)); err != nil {
		t.Fatal(err)
	}
	tids := make([]uint64, n)
	for i := range tids {
		res, err := tbl.Insert(row(int64(i), "x"), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		tids[i] = res.TID
	}
	tx := New(1)
	for i, tid := range tids {
		if i%4 == 0 {
			continue
		}
		if _, err := tbl.Delete(tid, tx); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != n/4 {
		t.Fatalf("Len after deletes = %d, want %d", tbl.Len(), n/4)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != n {
		t.Fatalf("Len after rollback = %d, want %d", tbl.Len(), n)
	}
	if got := tableValues(tbl); len(got) != n {
		t.Fatalf("scan returned %d rows, want %d", len(got), n)
	} else {
		for i, v := range got {
			if v != int64(i) {
				t.Fatalf("scan row %d = %d: rows out of TID order", i, v)
			}
		}
	}
	pk := tbl.Indexes()[0]
	for i, tid := range tids {
		if _, r, ok := tbl.Get(tid); !ok || r[0].Int() != int64(i) {
			t.Fatalf("Get(%d) = %v, %v; want id %d", tid, r, ok, i)
		}
		if got := pk.Lookup(index.Key{types.NewInt(int64(i))}); len(got) != 1 || got[0] != tid {
			t.Fatalf("index probe for id %d = %v, want [%d]", i, got, tid)
		}
	}
}

// TestRollbackPastCompactionUnderPin: a reader pinned before the rows
// existed scans its view while a TE deletes three rows in four (none
// is visible to the reader, so nothing is versioned and the heap
// compacts) and aborts. The reader must keep seeing an empty table,
// and the rollback's re-sort of the restored rows must not race its
// scans (run under -race).
func TestRollbackPastCompactionUnderPin(t *testing.T) {
	const n = 1000
	cat := storage.NewCatalog()
	v := storage.NewViews(cat)
	tbl := storage.NewTable("t", storage.KindTable, schema())
	if err := cat.Create(tbl); err != nil {
		t.Fatal(err)
	}
	rv := v.Pin()
	defer rv.Close()
	v.BeginTask()
	tids := make([]uint64, n)
	for i := range tids {
		res, err := tbl.Insert(row(int64(i), "x"), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		tids[i] = res.TID
	}
	v.EndTask()

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			view, release, err := rv.Table("t")
			if err != nil {
				t.Error(err)
				return
			}
			if got := view.Len(); got != 0 {
				t.Errorf("reader pinned before the inserts saw %d rows", got)
			}
			release()
		}
	}()
	v.BeginTask()
	tx := New(1)
	for i, tid := range tids {
		if i%4 == 0 {
			continue
		}
		if _, err := tbl.Delete(tid, tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	v.EndTask()
	close(stop)
	<-done
	if got := tableValues(tbl); len(got) != n || got[0] != 0 || got[n-1] != n-1 {
		t.Fatalf("after rollback: %d rows, want %d in TID order", len(got), n)
	}
}
