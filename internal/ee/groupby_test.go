package ee

import (
	"fmt"
	"testing"

	"sstore/internal/types"
)

// The aggregation sink builds every row's group key in one scratch row
// per statement run; these tests fail if a group ever keeps that
// scratch instead of its own copy (every group would then report the
// last row's key).

func TestGroupByMultiColumnInterleaved(t *testing.T) {
	e := newTestExec(t)
	mustExec(t, e, "CREATE TABLE t (a BIGINT, b BIGINT, x BIGINT)")
	want := map[[2]int64]int64{}
	for i := int64(0); i < 60; i++ {
		a, b := i%3, i%4 // pairs interleave: consecutive rows never share a group
		mustExec(t, e, "INSERT INTO t VALUES (?, ?, ?)", types.NewInt(a), types.NewInt(b), types.NewInt(i))
		want[[2]int64{a, b}]++
	}
	for run := 0; run < 2; run++ { // the second run reuses the cached plan
		res := mustExec(t, e, "SELECT a, b, COUNT(*) FROM t GROUP BY a, b ORDER BY a, b")
		if len(res.Rows) != len(want) {
			t.Fatalf("run %d: %d groups, want %d: %v", run, len(res.Rows), len(want), res.Rows)
		}
		seen := map[[2]int64]bool{}
		for _, r := range res.Rows {
			k := [2]int64{r[0].Int(), r[1].Int()}
			if seen[k] {
				t.Fatalf("run %d: group %v returned twice: %v", run, k, res.Rows)
			}
			seen[k] = true
			if r[2].Int() != want[k] {
				t.Errorf("run %d: group %v count %d, want %d", run, k, r[2].Int(), want[k])
			}
		}
	}
}

func TestGroupByTextKeys(t *testing.T) {
	e := newTestExec(t)
	mustExec(t, e, "CREATE TABLE t (name VARCHAR, x BIGINT)")
	names := []string{"ann", "bo", "cy", "ann", "Zoë", "bo", "ann", "", "Zoë"}
	for i, n := range names {
		mustExec(t, e, "INSERT INTO t VALUES (?, ?)", types.NewText(n), types.NewInt(int64(i)))
	}
	res := mustExec(t, e, "SELECT name, COUNT(*), SUM(x) FROM t GROUP BY name ORDER BY name")
	want := []struct {
		name   string
		n, sum int64
	}{{"", 1, 7}, {"Zoë", 2, 12}, {"ann", 3, 9}, {"bo", 2, 6}, {"cy", 1, 2}}
	if len(res.Rows) != len(want) {
		t.Fatalf("groups = %v", res.Rows)
	}
	for i, w := range want {
		r := res.Rows[i]
		if r[0].Text() != w.name || r[1].Int() != w.n || r[2].Int() != w.sum {
			t.Errorf("group %d = %v, want %q count %d sum %d", i, r, w.name, w.n, w.sum)
		}
	}
}

func TestGroupByNullKey(t *testing.T) {
	e := newTestExec(t)
	mustExec(t, e, "CREATE TABLE t (g BIGINT, x BIGINT)")
	for i, g := range []types.Value{types.Null, types.NewInt(1), types.Null, types.NewInt(2), types.NewInt(1), types.Null} {
		mustExec(t, e, "INSERT INTO t VALUES (?, ?)", g, types.NewInt(int64(i)))
	}
	res := mustExec(t, e, "SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g")
	// NULL sorts first and all NULL keys form one group.
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if !res.Rows[0][0].IsNull() || res.Rows[0][1].Int() != 3 {
		t.Errorf("NULL group = %v, want NULL with 3 rows", res.Rows[0])
	}
	if res.Rows[1][0].Int() != 1 || res.Rows[1][1].Int() != 2 || res.Rows[2][0].Int() != 2 || res.Rows[2][1].Int() != 1 {
		t.Errorf("groups = %v, want 1→2 and 2→1", res.Rows[1:])
	}
}

func TestGroupByCountDistinct(t *testing.T) {
	e := newTestExec(t)
	mustExec(t, e, "CREATE TABLE t (g BIGINT, x BIGINT)")
	// Group 0 sees x ∈ {0,1,2}, group 1 sees x ∈ {0,1}, each repeated.
	for i := int64(0); i < 30; i++ {
		g := i % 2
		mustExec(t, e, "INSERT INTO t VALUES (?, ?)", types.NewInt(g), types.NewInt((i/2)%(3-g)))
	}
	res := mustExec(t, e, "SELECT g, COUNT(DISTINCT x), COUNT(*) FROM t GROUP BY g ORDER BY g")
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %v", res.Rows)
	}
	for i, want := range [][3]int64{{0, 3, 15}, {1, 2, 15}} {
		r := res.Rows[i]
		if r[0].Int() != want[0] || r[1].Int() != want[1] || r[2].Int() != want[2] {
			t.Errorf("group %d = %v, want %v", i, r, want)
		}
	}
}

func TestGlobalAggregateOverZeroRows(t *testing.T) {
	e := newTestExec(t)
	mustExec(t, e, "CREATE TABLE t (g BIGINT, x BIGINT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 5)")
	res := mustExec(t, e, "SELECT COUNT(*), SUM(x), MAX(x) FROM t WHERE g > 100")
	if len(res.Rows) != 1 {
		t.Fatalf("global aggregate over zero rows returned %d rows, want 1", len(res.Rows))
	}
	if r := res.Rows[0]; r[0].Int() != 0 || !r[1].IsNull() || !r[2].IsNull() {
		t.Errorf("row = %v, want 0, NULL, NULL", r)
	}
	if res := mustExec(t, e, "SELECT g, COUNT(*) FROM t WHERE g > 100 GROUP BY g"); len(res.Rows) != 0 {
		t.Errorf("grouped aggregate over zero rows = %v, want no rows", res.Rows)
	}
}

// TestGroupByMallocsBounded bounds one GROUP BY statement over a warm
// 1 000-row table with 4 groups. The sink, its groups and the output
// run on the statement's scratch, so the run's cost is the copy Execute
// returns (5 mallocs); any allocation per input row (a group key, a
// hasher) costs 1 000 more and fails the bound.
func TestGroupByMallocsBounded(t *testing.T) {
	e := newTestExec(t)
	mustExec(t, e, "CREATE TABLE t (g BIGINT, x BIGINT)")
	for i := int64(0); i < 1000; i++ {
		mustExec(t, e, "INSERT INTO t VALUES (?, ?)", types.NewInt(i%4), types.NewInt(i))
	}
	const q = "SELECT g, COUNT(*), SUM(x) FROM t GROUP BY g ORDER BY g"
	mustExec(t, e, q) // compile and cache the plan
	n := testing.AllocsPerRun(20, func() {
		res, err := e.Execute(q, nil, &ExecCtx{})
		if err != nil || len(res.Rows) != 4 {
			panic(fmt.Sprintf("GROUP BY broke: %v %v", res, err))
		}
	})
	t.Logf("GROUP BY over 1000 rows: %.0f mallocs/statement", n)
	if n >= 20 {
		t.Fatalf("GROUP BY over 1000 rows in 4 groups allocates %.0f/statement, want < 20", n)
	}
}
