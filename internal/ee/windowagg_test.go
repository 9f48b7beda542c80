package ee

import (
	"fmt"
	"testing"

	"sstore/internal/storage"
	"sstore/internal/types"
)

// maintainTestAggs registers the standard aggregate set over column v
// of window w and drops cached plans, as pe.MaintainWindowAggregate
// does.
func maintainTestAggs(t *testing.T, e *Executor, table string) {
	t.Helper()
	tbl, err := e.cat.Get(table)
	if err != nil {
		t.Fatal(err)
	}
	ord, ok := tbl.Schema().Index("v")
	if !ok {
		t.Fatalf("no column v in %s", table)
	}
	for _, fn := range []storage.AggFunc{storage.AggCount, storage.AggSum, storage.AggAvg, storage.AggMin, storage.AggMax} {
		if err := tbl.MaintainAggregate(fn, ord); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.MaintainAggregate(storage.AggCount, storage.AggStar); err != nil {
		t.Fatal(err)
	}
	e.InvalidatePlans()
}

// TestMaintainedAggregateSelect: an aggregate query over a window with
// maintained aggregates plans as a stored-value read and returns the
// same results as the scanning plan.
func TestMaintainedAggregateSelect(t *testing.T) {
	e := newTestExec(t)
	mustExec(t, e, "CREATE WINDOW w (v BIGINT) SIZE 4 SLIDE 2")
	for _, v := range []int64{5, 1, 9, 2, 7, 3} {
		mustExec(t, e, fmt.Sprintf("INSERT INTO w VALUES (%d)", v))
	}
	const q = "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM w"
	scan := mustExec(t, e, q)

	maintainTestAggs(t, e, "w")
	p, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.sel.maintained == nil {
		t.Fatal("plan did not pick the maintained aggregates")
	}
	stored := mustExec(t, e, q)
	if len(stored.Rows) != 1 || len(scan.Rows) != 1 {
		t.Fatalf("rows: stored %v, scan %v", stored.Rows, scan.Rows)
	}
	for i := range scan.Rows[0] {
		if !stored.Rows[0][i].Equal(scan.Rows[0][i]) {
			t.Errorf("col %d (%s): stored %v, scan %v", i, stored.Columns[i], stored.Rows[0][i], scan.Rows[0][i])
		}
	}

	// The stored values track further slides.
	for _, v := range []int64{100, -6} {
		mustExec(t, e, fmt.Sprintf("INSERT INTO w VALUES (%d)", v))
	}
	stored = mustExec(t, e, q)
	// A residual filter forces the scanning plan for reference.
	ref := mustExec(t, e, "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM w WHERE v > -999999")
	for i := range ref.Rows[0] {
		if !stored.Rows[0][i].Equal(ref.Rows[0][i]) {
			t.Errorf("after slide, col %d: stored %v, scan %v", i, stored.Rows[0][i], ref.Rows[0][i])
		}
	}
}

// TestMaintainedAggregateExpressions: HAVING and expressions over the
// aggregates still work on the stored-value path.
func TestMaintainedAggregateExpressions(t *testing.T) {
	e := newTestExec(t)
	mustExec(t, e, "CREATE WINDOW w (v BIGINT) SIZE 2 SLIDE 1")
	maintainTestAggs(t, e, "w")
	for _, v := range []int64{10, 20, 30} {
		mustExec(t, e, fmt.Sprintf("INSERT INTO w VALUES (%d)", v))
	}
	res := mustExec(t, e, "SELECT SUM(v) + COUNT(*) FROM w")
	if got := res.Rows[0][0].Int(); got != 52 { // 20+30 active, +2
		t.Errorf("SUM+COUNT = %d, want 52", got)
	}
	res = mustExec(t, e, "SELECT SUM(v) FROM w HAVING SUM(v) > 1000")
	if len(res.Rows) != 0 {
		t.Errorf("HAVING should filter the group, got %v", res.Rows)
	}
}

// TestMaintainedAggregateNotUsedWhenIneligible: filters, grouping, and
// unregistered calls must keep the scanning plan.
func TestMaintainedAggregateNotUsedWhenIneligible(t *testing.T) {
	e := newTestExec(t)
	mustExec(t, e, "CREATE WINDOW w (k BIGINT, v BIGINT) SIZE 4 SLIDE 2")
	tbl, _ := e.cat.Get("w")
	if err := tbl.MaintainAggregate(storage.AggSum, 1); err != nil {
		t.Fatal(err)
	}
	e.InvalidatePlans()
	for i := int64(0); i < 6; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO w VALUES (%d, %d)", i%2, i*10))
	}
	for _, q := range []string{
		"SELECT SUM(v) FROM w WHERE k = 1",
		"SELECT k, SUM(v) FROM w GROUP BY k",
		"SELECT SUM(k) FROM w",            // not registered
		"SELECT COUNT(DISTINCT v) FROM w", // not maintainable
	} {
		p, err := e.Prepare(q)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", q, err)
		}
		if p.sel.maintained != nil {
			t.Errorf("%q wrongly planned as maintained", q)
		}
	}
	// And the filtered query still answers correctly.
	res := mustExec(t, e, "SELECT SUM(v) FROM w WHERE k = 1")
	var want int64
	tbl.Scan(func(_ storage.TupleMeta, r types.Row) bool {
		if r[0].Int() == 1 {
			want += r[1].Int()
		}
		return true
	})
	if res.Rows[0][0].Int() != want {
		t.Errorf("filtered SUM = %v, want %d", res.Rows[0][0], want)
	}
}

// TestMaintainedAggregateAbortThroughExecutor: an EE-level abort of a
// TE that slid a maintained window restores stored aggregates exactly.
func TestMaintainedAggregateAbortThroughExecutor(t *testing.T) {
	e := newTestExec(t)
	mustExec(t, e, "CREATE WINDOW w (v BIGINT) SIZE 3 SLIDE 1")
	maintainTestAggs(t, e, "w")
	for _, v := range []int64{4, 8, 15} {
		mustExec(t, e, fmt.Sprintf("INSERT INTO w VALUES (%d)", v))
	}
	const q = "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM w"
	before := mustExec(t, e, q)

	tx := &recordingTxn{}
	ctx := &ExecCtx{Txn: tx}
	if _, err := e.Execute("INSERT INTO w VALUES (16)", nil, ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute("INSERT INTO w VALUES (23)", nil, ctx); err != nil {
		t.Fatal(err)
	}
	tx.rollback(t)
	after := mustExec(t, e, q)
	for i := range before.Rows[0] {
		if !after.Rows[0][i].Equal(before.Rows[0][i]) {
			t.Errorf("col %d (%s): %v after abort, want %v", i, before.Columns[i], after.Rows[0][i], before.Rows[0][i])
		}
	}
}

// recordingTxn is a minimal TxnState for executor-level abort tests:
// physical undo in reverse order plus window marks, mirroring txn.Txn
// without importing it (ee cannot depend on txn).
type recordingTxn struct {
	ops      []func() error
	marks    []func()
	restored []*storage.Table
}

func (r *recordingTxn) RecordInsert(t *storage.Table, tid uint64) {
	r.ops = append(r.ops, func() error { _, err := t.Delete(tid, nil); return err })
}

func (r *recordingTxn) RecordDelete(t *storage.Table, meta storage.TupleMeta, row types.Row) {
	row = row.Clone()
	r.ops = append(r.ops, func() error { return t.RestoreRow(meta, row) })
	r.restored = append(r.restored, t)
}

func (r *recordingTxn) RecordStage(t *storage.Table, tid uint64, prev bool) {
	r.ops = append(r.ops, func() error { t.RestoreStaged(tid, prev); return nil })
}

func (r *recordingTxn) MarkWindow(t *storage.Table) {
	if len(r.marks) == 0 { // one window per test; capture once, pre-TE
		mark := t.Window().Mark()
		r.marks = append(r.marks, func() { t.Window().Reset(mark) })
	}
}

func (r *recordingTxn) rollback(t *testing.T) {
	t.Helper()
	for i := len(r.ops) - 1; i >= 0; i-- {
		if err := r.ops[i](); err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range r.restored {
		tbl.SortRestored()
	}
	for _, m := range r.marks {
		m()
	}
}
