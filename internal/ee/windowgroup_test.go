package ee

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sstore/internal/storage"
	"sstore/internal/types"
)

// groupedQueries are GROUP BY reads over window w that the planner
// serves from grouped maintained aggregates once COUNT(*), COUNT(v)
// and SUM(v) are maintained per k and COUNT(*) per (k, v). Their
// ORDER BYs tie on the aggregates and break ties on the keys.
var groupedQueries = []struct {
	sql    string
	params []types.Value
}{
	{"SELECT k, COUNT(*), SUM(v) FROM w GROUP BY k ORDER BY COUNT(*) DESC, k LIMIT 3", nil},
	{"SELECT 0, k, COUNT(*) FROM w GROUP BY k ORDER BY COUNT(*) DESC, k LIMIT ?", []types.Value{types.NewInt(2)}},
	{"SELECT k, SUM(v) FROM w GROUP BY k HAVING COUNT(*) > 1 ORDER BY k", nil},
	{"SELECT k AS kk, COUNT(v), SUM(v) + 1 FROM w GROUP BY k ORDER BY SUM(v), kk DESC", nil},
	{"SELECT k, v, COUNT(*) FROM w GROUP BY k, v ORDER BY COUNT(*) DESC, v, k", nil},
}

// scanTwin adds an always-true residual filter, which keeps the
// statement on the scanning plan: the reference answer.
func scanTwin(q string) string {
	return strings.Replace(q, " FROM w ", " FROM w WHERE 1 = 1 ", 1)
}

// maintainGrouped registers the grouped aggregates groupedQueries
// need and drops cached plans, as pe.MaintainWindowAggregate does.
func maintainGrouped(t *testing.T, e *Executor) {
	t.Helper()
	tbl, err := e.cat.Get("w")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		fn   storage.AggFunc
		col  int
		keys []int
	}{
		{storage.AggCount, storage.AggStar, []int{0}},
		{storage.AggCount, 1, []int{0}},
		{storage.AggSum, 1, []int{0}},
		{storage.AggCount, storage.AggStar, []int{0, 1}},
	} {
		if err := tbl.MaintainAggregate(r.fn, r.col, r.keys...); err != nil {
			t.Fatal(err)
		}
	}
	e.InvalidatePlans()
}

func sameResult(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) || len(a.Columns) != len(b.Columns) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	for i := range a.Rows {
		if !a.Rows[i].Equal(b.Rows[i]) {
			return false
		}
	}
	return true
}

// checkGroupedMatchesScan runs every grouped query both ways, and as a
// snapshot ReadPlan (which scans grouped plans), and fails on any
// difference.
func checkGroupedMatchesScan(t *testing.T, e *Executor, step string) {
	t.Helper()
	for _, q := range groupedQueries {
		p, err := e.Prepare(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		if p.sel.maintained == nil || p.sel.groupKeys == nil {
			t.Fatalf("%q is not served from grouped maintained aggregates", q.sql)
		}
		got := mustExec(t, e, q.sql, q.params...)
		want := mustExec(t, e, scanTwin(q.sql), q.params...)
		if !sameResult(got, want) {
			t.Fatalf("%s: %q\nmaintained %v\nscan       %v", step, q.sql, got.Rows, want.Rows)
		}
		rp, err := CompileReadOnly(q.sql, e.cat)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := rp.Maintained(); ok {
			t.Fatalf("read plan for %q claims pinned values; grouped reads must scan the view", q.sql)
		}
		read, err := rp.Run(e.cat, q.params)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(read, want) {
			t.Fatalf("%s: read plan %q\nread %v\nscan %v", step, q.sql, read.Rows, want.Rows)
		}
	}
}

// randValue draws a key or argument, NULL one time in eight.
func randValue(rng *rand.Rand, lo, n int64) types.Value {
	if rng.Intn(8) == 0 {
		return types.Null
	}
	return types.NewInt(lo + rng.Int63n(n))
}

// TestGroupedMaintainedMatchesScan is the differential test of grouped
// maintained aggregates: seeded random sequences of window inserts
// (each possibly sliding), aborted TEs, UPDATEs of the key and
// argument columns, DELETEs, checkpoint encode→restore and Truncate.
// After every step each grouped query must return exactly the rows its
// scanning twin returns. Keys are drawn from a small range plus NULL,
// so groups tie, empty and reappear constantly.
func TestGroupedMaintainedMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e := newTestExec(t)
			size := 3 + rng.Int63n(6)
			slide := 1 + rng.Int63n(size)
			mustExec(t, e, fmt.Sprintf("CREATE WINDOW w (k BIGINT, v BIGINT) SIZE %d SLIDE %d", size, slide))
			tbl, _ := e.cat.Get("w")
			insert := func(ctx *ExecCtx) {
				if _, err := e.Execute("INSERT INTO w VALUES (?, ?)", []types.Value{randValue(rng, 0, 4), randValue(rng, -5, 25)}, ctx); err != nil {
					t.Fatal(err)
				}
			}
			update := func(ctx *ExecCtx) {
				stmt, params := "UPDATE w SET k = ? WHERE k = ?", []types.Value{randValue(rng, 0, 4), randValue(rng, 0, 4)}
				if rng.Intn(2) == 0 {
					stmt = "UPDATE w SET v = v + ? WHERE k = ?"
				}
				if _, err := e.Execute(stmt, params, ctx); err != nil {
					t.Fatal(err)
				}
			}
			// Registration happens part-way in: it must pick up the
			// rows already active.
			for i := int64(0); i < size+slide; i++ {
				insert(&ExecCtx{})
			}
			maintainGrouped(t, e)
			checkGroupedMatchesScan(t, e, "registration")
			for step := 0; step < 250; step++ {
				var what string
				switch r := rng.Intn(100); {
				case r < 55:
					what = "insert"
					insert(&ExecCtx{})
				case r < 70:
					what = "aborted TE"
					tx := &recordingTxn{}
					ctx := &ExecCtx{Txn: tx}
					for n := 1 + rng.Intn(int(2*slide+1)); n > 0; n-- {
						insert(ctx)
					}
					if rng.Intn(2) == 0 {
						update(ctx)
					}
					tx.rollback(t)
				case r < 82:
					what = "update"
					update(&ExecCtx{})
				case r < 90:
					what = "delete"
					mustExec(t, e, "DELETE FROM w WHERE v = ?", randValue(rng, -5, 25))
				case r < 97:
					what = "checkpoint restore"
					img := storage.EncodeTable(nil, tbl)
					if _, err := storage.RestoreTable(tbl, img); err != nil {
						t.Fatal(err)
					}
				default:
					what = "truncate"
					tbl.Truncate()
				}
				checkGroupedMatchesScan(t, e, fmt.Sprintf("step %d (%s)", step, what))
			}
		})
	}
}

// TestGroupedMaintainedNullKeyAndReappearingGroup pins the two cases
// the random walk only hits by chance: the NULL key forms one group
// that sorts first, and a group that empties leaves the answer and
// returns with a fresh count.
func TestGroupedMaintainedNullKeyAndReappearingGroup(t *testing.T) {
	e := newTestExec(t)
	mustExec(t, e, "CREATE WINDOW w (k BIGINT, v BIGINT) SIZE 3 SLIDE 1")
	maintainGrouped(t, e)
	const q = "SELECT k, COUNT(*) FROM w GROUP BY k ORDER BY k"
	ins := func(k types.Value) { mustExec(t, e, "INSERT INTO w VALUES (?, 1)", k) }
	rows := func() string { return fmt.Sprint(mustExec(t, e, q).Rows) }
	ins(types.Null)
	ins(types.NewInt(2))
	ins(types.Null)
	if got, want := rows(), "[[NULL, 2] [2, 1]]"; got != want {
		t.Fatalf("NULL key: %s, want %s", got, want)
	}
	ins(types.NewInt(1)) // the first NULL expires
	ins(types.NewInt(1)) // 2 expires: its group empties
	if got, want := rows(), "[[NULL, 1] [1, 2]]"; got != want {
		t.Fatalf("emptied group: %s, want %s", got, want)
	}
	ins(types.NewInt(2)) // 2 reappears, NULL leaves
	if got, want := rows(), "[[1, 2] [2, 1]]"; got != want {
		t.Fatalf("reappeared group: %s, want %s", got, want)
	}
	checkGroupedMatchesScan(t, e, "end")
}

// TestGroupedMaintainedPlanCache: a plan compiled before registration
// keeps scanning (still correct), and the invalidation that comes with
// registration recompiles it onto the maintained groups.
func TestGroupedMaintainedPlanCache(t *testing.T) {
	e := newTestExec(t)
	mustExec(t, e, "CREATE WINDOW w (k BIGINT, v BIGINT) SIZE 4 SLIDE 1")
	for i := int64(0); i < 6; i++ {
		mustExec(t, e, "INSERT INTO w VALUES (?, ?)", types.NewInt(i%3), types.NewInt(i))
	}
	q := groupedQueries[0].sql
	before, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if before.sel.maintained != nil {
		t.Fatal("plan maintained before registration")
	}
	want := mustExec(t, e, q)
	maintainGrouped(t, e)
	after, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if after == before || after.sel.groupKeys == nil {
		t.Fatal("registration did not recompile the cached plan onto the groups")
	}
	if got := mustExec(t, e, q); !sameResult(got, want) {
		t.Fatalf("maintained %v, scan %v", got.Rows, want.Rows)
	}
}

// TestGroupedMaintainedNotUsedWhenIneligible: a grouped plan is served
// from the groups only when ORDER BY names every key (else the groups'
// arrival order could reach the result) and nothing else forces a
// scan.
func TestGroupedMaintainedNotUsedWhenIneligible(t *testing.T) {
	e := newTestExec(t)
	mustExec(t, e, "CREATE WINDOW w (k BIGINT, v BIGINT) SIZE 4 SLIDE 1")
	mustExec(t, e, "CREATE TABLE other (k BIGINT)")
	maintainGrouped(t, e)
	for _, q := range []string{
		"SELECT k, COUNT(*) FROM w GROUP BY k ORDER BY COUNT(*) DESC",                     // ORDER BY omits the key
		"SELECT k, COUNT(*) FROM w GROUP BY k",                                            // no ORDER BY
		"SELECT k, v, COUNT(*) FROM w GROUP BY k, v ORDER BY k",                           // omits one of two keys
		"SELECT k AS v, COUNT(*) FROM w GROUP BY k, v ORDER BY v, COUNT(*)",               // v is the key, not the alias
		"SELECT k, COUNT(*) FROM w WHERE v > 0 GROUP BY k ORDER BY k",                     // filtered
		"SELECT k, MIN(v) FROM w GROUP BY k ORDER BY k",                                   // not registered per key
		"SELECT k, COUNT(DISTINCT v) FROM w GROUP BY k ORDER BY k",                        // not maintainable
		"SELECT v, COUNT(*) FROM w GROUP BY v ORDER BY v",                                 // key set not registered
		"SELECT v, k, COUNT(*) FROM w GROUP BY v, k ORDER BY v, k",                        // keys in another order
		"SELECT w.k, COUNT(*) FROM w JOIN other o ON o.k = w.k GROUP BY w.k ORDER BY w.k", // join
		"SELECT COUNT(*) FROM w",                                                          // scalar COUNT(*) is not registered
	} {
		p, err := e.Prepare(q)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", q, err)
		}
		if p.sel.maintained != nil {
			t.Errorf("%q wrongly planned as maintained", q)
		}
	}
}

//sstore:allocgate lowerName
func TestLowerNameAllocFree(t *testing.T) {
	if got := lowerName("Valid_Votes"); got != "valid_votes" {
		t.Fatalf("lowerName folded to %q", got)
	}
	var sink string
	if n := testing.AllocsPerRun(1000, func() {
		sink = lowerName("valid_votes")
	}); n != 0 {
		t.Fatalf("lowerName allocates %v/op on a lower-case name; it runs on every stream insert and trigger dispatch", n)
	}
	if sink != "valid_votes" {
		t.Fatalf("lowerName changed a lower-case name to %q", sink)
	}
}
