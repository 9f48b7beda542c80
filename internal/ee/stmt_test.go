package ee

import (
	"fmt"
	"math/rand"
	"testing"

	"sstore/internal/storage"
	"sstore/internal/types"
)

// declaredMix is the differential workload's statement set: point and
// index probes, scans with WHERE, ORDER BY … LIMIT ?, a scanning and a
// maintained GROUP BY, a join, a global aggregate, INSERT … VALUES,
// INSERT … SELECT, UPDATE and DELETE.
var declaredMix = []string{
	"SELECT k, g, v FROM kv WHERE k = ?",
	"SELECT k, v FROM kv WHERE g = ? AND v > ?",
	"SELECT k, v FROM kv WHERE v < ? ORDER BY v DESC, k LIMIT ?",
	"SELECT g, COUNT(*), SUM(v) FROM kv GROUP BY g ORDER BY g",
	"SELECT k, COUNT(*) FROM w GROUP BY k ORDER BY COUNT(*) DESC, k LIMIT ?",
	"INSERT INTO dst SELECT k, g, v FROM kv WHERE g = ? ORDER BY v, k LIMIT ?",
	"UPDATE kv SET v = v + ? WHERE g = ?",
	"DELETE FROM dst WHERE g = ?",
	"INSERT INTO kv VALUES (?, ?, ?)",
	"INSERT INTO w VALUES (?, ?)",
	"DELETE FROM kv WHERE k = ?",
	"SELECT COUNT(*), MIN(v), MAX(v), AVG(v) FROM dst",
	"SELECT d.k, kv.v FROM dst d JOIN kv ON kv.k = d.k WHERE d.g = ? ORDER BY d.k, kv.v",
	"INSERT INTO dst (k, v) VALUES (?, ?)",
}

// mixParams draws parameters for declaredMix[i].
func mixParams(rng *rand.Rand, i int) []types.Value {
	n := func(k int) types.Value { return types.NewInt(int64(rng.Intn(k))) }
	switch i {
	case 0, 10:
		return []types.Value{n(40)}
	case 1:
		return []types.Value{n(5), n(100)}
	case 2:
		return []types.Value{n(150), n(6)}
	case 4:
		return []types.Value{n(4)}
	case 5:
		return []types.Value{n(5), n(4)}
	case 6:
		return []types.Value{types.NewInt(int64(rng.Intn(21) - 10)), n(5)}
	case 7, 12:
		return []types.Value{n(5)}
	case 8:
		return []types.Value{n(40), n(5), n(100)}
	case 9:
		return []types.Value{n(6), n(100)}
	case 13:
		return []types.Value{n(40), n(100)}
	default:
		return nil
	}
}

// newMixExec builds one executor with the mix's schema and seed rows;
// the window keeps COUNT(*) per k, so statement 4 is served from the
// maintained groups.
func newMixExec(t *testing.T) *Executor {
	t.Helper()
	e := newTestExec(t)
	mustExec(t, e, "CREATE TABLE kv (k BIGINT PRIMARY KEY, g BIGINT, v BIGINT)")
	mustExec(t, e, "CREATE INDEX kv_g ON kv (g)")
	mustExec(t, e, "CREATE TABLE dst (k BIGINT, g BIGINT, v BIGINT)")
	mustExec(t, e, "CREATE WINDOW w (k BIGINT, v BIGINT) SIZE 8 SLIDE 2")
	w, err := e.cat.Get("w")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.MaintainAggregate(storage.AggCount, storage.AggStar, 0); err != nil {
		t.Fatal(err)
	}
	e.InvalidatePlans()
	for k := 0; k < 30; k++ {
		mustExec(t, e, "INSERT INTO kv VALUES (?, ?, ?)",
			types.NewInt(int64(k)), types.NewInt(int64(k%5)), types.NewInt(int64(k*7%100)))
	}
	return e
}

// sameOutcome compares two runs of one statement: both failed, or
// both succeeded with equal rows, columns and row counts.
func sameOutcome(a *Result, aErr error, b *Result, bErr error) bool {
	if (aErr != nil) != (bErr != nil) {
		return false
	}
	return aErr != nil || (sameResult(a, b) && a.RowsAffected == b.RowsAffected)
}

// TestDeclaredMatchesQuery runs one seeded statement mix through
// declared statements (Exec, results read in place, contexts reset
// every few statements as transaction executions end) on one executor
// and through Execute (Query's path, copied results) on a twin, and
// requires every result and the final tables to be equal.
func TestDeclaredMatchesQuery(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			decl, adhoc := newMixExec(t), newMixExec(t)
			stmts := make([]*Stmt, len(declaredMix))
			for i, text := range declaredMix {
				s, err := decl.Declare(text)
				if err != nil {
					t.Fatalf("Declare(%q): %v", text, err)
				}
				stmts[i] = s
			}
			ctx, qctx := &ExecCtx{}, &ExecCtx{}
			for op := 0; op < 600; op++ {
				if op%5 == 0 {
					ctx.Reset("", 0, nil, nil)
				}
				i := rng.Intn(len(declaredMix))
				params := mixParams(rng, i)
				got, gotErr := decl.Exec(stmts[i], params, ctx)
				want, wantErr := adhoc.Execute(declaredMix[i], params, qctx)
				if !sameOutcome(got, gotErr, want, wantErr) {
					t.Fatalf("op %d %q %v: Exec = %v, %v; Execute = %v, %v",
						op, declaredMix[i], params, got, gotErr, want, wantErr)
				}
			}
			for _, q := range []string{
				"SELECT k, g, v FROM kv ORDER BY k",
				"SELECT k, g, v FROM dst",
				"SELECT k, v FROM w",
			} {
				a, b := mustExec(t, decl, q), mustExec(t, adhoc, q)
				if !sameResult(a, b) {
					t.Fatalf("%s: declared side %v, ad hoc side %v", q, a.Rows, b.Rows)
				}
			}
		})
	}
}

// TestInsertedRowsAreNotScratch: every row an INSERT hands its table
// is the table's own. Each form runs twice on its scratch; a stored row
// that aliased the scratch would have been overwritten by the second
// run, leaving the first run's key missing. The differential test
// cannot see this, since both of its sides insert through one path.
func TestInsertedRowsAreNotScratch(t *testing.T) {
	e := newMixExec(t)
	ctx := &ExecCtx{}
	v := types.NewInt
	for _, c := range []struct {
		sql  string
		a, b []types.Value
	}{
		{"INSERT INTO dst SELECT k, g, v FROM kv WHERE k = ?", []types.Value{v(1)}, []types.Value{v(2)}},
		{"INSERT INTO dst (k, v) VALUES (?, ?)", []types.Value{v(101), v(1)}, []types.Value{v(102), v(2)}},
		{"INSERT INTO dst VALUES (?, ?, ?)", []types.Value{v(201), v(1), v(1)}, []types.Value{v(202), v(2), v(2)}},
	} {
		s, err := e.Declare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, params := range [][]types.Value{c.a, c.b} {
			if _, err := e.Exec(s, params, ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	var got []int64
	for _, r := range mustExec(t, e, "SELECT k FROM dst ORDER BY k").Rows {
		got = append(got, r[0].Int())
	}
	if want := []int64{1, 2, 101, 102, 201, 202}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dst keys %v, want %v", got, want)
	}
}

// TestExecResultLifetime pins the one rule declared statements add: an
// Exec result is the statement's scratch, overwritten by the same
// statement's next run in the same execution, while an Execute result
// is the caller's. Another execution's run falls back to fresh scratch
// and leaves the holder's result alone.
func TestExecResultLifetime(t *testing.T) {
	e := newMixExec(t)
	const text = "SELECT k, v FROM kv WHERE k = ?"
	s, err := e.Declare(text)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &ExecCtx{}
	first, err := e.Exec(s, []types.Value{types.NewInt(1)}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if first.Rows[0][0].Int() != 1 {
		t.Fatalf("first run = %v", first.Rows)
	}
	other, err := e.Exec(s, []types.Value{types.NewInt(3)}, &ExecCtx{})
	if err != nil {
		t.Fatal(err)
	}
	if other.Rows[0][0].Int() != 3 || first.Rows[0][0].Int() != 1 {
		t.Fatalf("another execution's run: its rows %v, holder's rows %v", other.Rows, first.Rows)
	}
	second, err := e.Exec(s, []types.Value{types.NewInt(2)}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if second != first || first.Rows[0][0].Int() != 2 {
		t.Fatalf("same statement's next run left the first result as %v (second %v)", first.Rows, second.Rows)
	}

	q1 := mustExec(t, e, text, types.NewInt(1))
	mustExec(t, e, text, types.NewInt(2))
	if q1.Rows[0][0].Int() != 1 {
		t.Fatalf("Execute result changed by a later run: %v", q1.Rows)
	}

	// Runs of the same text that are not this statement — an Execute in
	// the same execution, another declaration of the text — leave its
	// result alone: a declared statement's scratch is its own.
	twin, err := e.Declare(text)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(text, []types.Value{types.NewInt(5)}, ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(twin, []types.Value{types.NewInt(6)}, ctx); err != nil {
		t.Fatal(err)
	}
	if first.Rows[0][0].Int() != 2 {
		t.Fatalf("a run of the same text overwrote the declared statement's result: %v", first.Rows)
	}

	// Reset ends the execution and frees the scratch for the next one.
	ctx.Reset("", 0, nil, nil)
	next := &ExecCtx{}
	res, err := e.Exec(s, []types.Value{types.NewInt(4)}, next)
	if err != nil {
		t.Fatal(err)
	}
	if res != first {
		t.Fatalf("after Reset the next execution ran on fresh scratch")
	}
}

// TestExecReentrantTrigger: an EE trigger on the stream an INSERT …
// SELECT feeds re-runs that very statement text. Run ad hoc, the outer
// and the inner run share the plan cache's compiled statement, so the
// inner run must fall back to fresh scratch and leave the outer run's
// — its parameters, rows and result — alone. Run as a declared
// statement, the outer run is on the statement's own scratch, which
// the trigger's cached plan never touches.
func TestExecReentrantTrigger(t *testing.T) {
	const feed = "INSERT INTO s SELECT v FROM src WHERE v < ? ORDER BY v"
	for _, declared := range []bool{false, true} {
		t.Run(fmt.Sprintf("declared=%v", declared), func(t *testing.T) {
			e := newTestExec(t)
			mustExec(t, e, "CREATE TABLE src (v BIGINT)")
			mustExec(t, e, "CREATE STREAM s (v BIGINT)")
			mustExec(t, e, "CREATE TABLE fired (n BIGINT)")
			mustExec(t, e, "INSERT INTO src VALUES (1), (2), (3), (99)")
			// Trigger statements get ?1 = the batch ID (1): the inner run
			// of feed selects v < 1, inserts nothing and fires nothing
			// further.
			if err := e.AddTrigger(&Trigger{Table: "s", Stmts: []string{
				"INSERT INTO fired SELECT COUNT(*) FROM s",
				feed,
			}}); err != nil {
				t.Fatal(err)
			}
			ctx := &ExecCtx{BatchID: 1}
			params := []types.Value{types.NewInt(4)}
			var outer *prepared // the compiled statement the outer run used
			var res *Result
			if declared {
				s, err := e.Declare(feed)
				if err != nil {
					t.Fatal(err)
				}
				outer = s.p
				res, err = e.Exec(s, params, ctx)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				var err error
				if res, err = e.Execute(feed, params, ctx); err != nil {
					t.Fatal(err)
				}
				if outer, err = e.Prepare(feed); err != nil {
					t.Fatal(err)
				}
			}
			if res.RowsAffected != 3 {
				t.Fatalf("outer run affected %d rows, want 3", res.RowsAffected)
			}
			if got := mustExec(t, e, "SELECT n FROM fired").Rows; len(got) != 1 || got[0][0].Int() != 3 {
				t.Fatalf("trigger saw %v, want one firing over 3 rows", got)
			}
			if sc := &outer.sc; sc.running || len(sc.params) != 1 || sc.params[0].Int() != 4 {
				t.Fatalf("outer scratch after the run: running %v, params %v; want idle with [4]", sc.running, sc.params)
			}
			if n := mustExec(t, e, "SELECT COUNT(*) FROM s").Rows[0][0].Int(); n != 0 {
				t.Fatalf("stream keeps %d rows after its trigger consumed the batch", n)
			}
		})
	}
}

// TestCompiledSelectAllocFree: once warm, a declared point probe and a
// declared ORDER BY … LIMIT ? scan run entirely on their scratch.
func TestCompiledSelectAllocFree(t *testing.T) {
	e := newMixExec(t)
	ctx := &ExecCtx{}
	for _, c := range []struct {
		sql    string
		params []types.Value
		rows   int
	}{
		{"SELECT k, g, v FROM kv WHERE k = ?", []types.Value{types.NewInt(7)}, 1},
		{"SELECT k, v FROM kv WHERE v < ? ORDER BY v DESC, k LIMIT ?", []types.Value{types.NewInt(90), types.NewInt(3)}, 3},
	} {
		s, err := e.Declare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := e.Exec(s, c.params, ctx)
			if err != nil || len(res.Rows) != c.rows {
				panic(fmt.Sprintf("%s: %v %v", c.sql, res, err))
			}
		}
		run()
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("%s: %.0f allocs/run, want 0", c.sql, n)
		}
	}
}

// TestCompiledInsertMallocs: a warm declared INSERT … VALUES into an
// unindexed table allocates exactly the row the table keeps.
func TestCompiledInsertMallocs(t *testing.T) {
	e := newTestExec(t)
	mustExec(t, e, "CREATE TABLE log (a BIGINT, b BIGINT)")
	s, err := e.Declare("INSERT INTO log VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &ExecCtx{}
	params := []types.Value{types.NewInt(1), types.NewInt(2)}
	run := func() {
		if _, err := e.Exec(s, params, ctx); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 1000; i++ {
		run()
	}
	if n := testing.AllocsPerRun(1000, run); n != 1 {
		t.Errorf("INSERT … VALUES: %.0f allocs/run, want exactly 1 (the stored row)", n)
	}
}

// TestScratchTrimmedAfterLargeRun: a run that grows a statement's
// scratch past maxScratchValues — a large DELETE's matched TIDs, a large
// INSERT … SELECT's rows, a large COUNT(DISTINCT) set — lets it go when
// the run ends, so one large statement does not pin its memory for the
// life of the plan.
func TestScratchTrimmedAfterLargeRun(t *testing.T) {
	e := newTestExec(t)
	mustExec(t, e, "CREATE TABLE big (k BIGINT, g BIGINT)")
	mustExec(t, e, "CREATE TABLE copy (k BIGINT, g BIGINT)")
	const n = 2*maxScratchValues + 10
	for k := 0; k < n; k++ {
		mustExec(t, e, "INSERT INTO big VALUES (?, ?)", types.NewInt(int64(k)), types.NewInt(int64(k%2)))
	}
	ctx := &ExecCtx{}
	decl := func(text string) *Stmt {
		s, err := e.Declare(text)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	distinct := decl("SELECT g, COUNT(DISTINCT k) FROM big GROUP BY g ORDER BY g")
	res, err := e.Exec(distinct, nil, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].Int() != n/2 {
		t.Fatalf("COUNT(DISTINCT) = %v, want %d per group", res.Rows, n/2)
	}
	for _, g := range distinct.p.sc.sel.agg.groups {
		if g.accs[0].seen != nil {
			t.Errorf("group %v keeps a %d-entry DISTINCT set", g.key, len(g.accs[0].seen))
		}
	}
	ins := decl("INSERT INTO copy SELECT k, g FROM big")
	if res, err := e.Exec(ins, nil, ctx); err != nil || res.RowsAffected != n {
		t.Fatalf("INSERT … SELECT: %v, %v", res, err)
	}
	if c := cap(ins.p.sc.inserted); c > maxScratchValues {
		t.Errorf("INSERT keeps room for %d rows", c)
	}
	del := decl("DELETE FROM copy WHERE k >= ?")
	if res, err := e.Exec(del, []types.Value{types.NewInt(0)}, ctx); err != nil || res.RowsAffected != n {
		t.Fatalf("DELETE: %v, %v", res, err)
	}
	if c := cap(del.p.sc.tids); c > maxScratchValues {
		t.Errorf("DELETE keeps room for %d TIDs", c)
	}
}
