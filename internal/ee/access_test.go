package ee

import (
	"reflect"
	"testing"

	"sstore/internal/storage"
)

func accessExec(t *testing.T) *Executor {
	t.Helper()
	e := NewExecutor(storage.NewCatalog())
	for _, ddl := range []string{
		"CREATE TABLE acct (id INT PRIMARY KEY, bal INT)",
		"CREATE TABLE audit (id INT, note STRING)",
		"CREATE STREAM sin (id INT, v INT)",
		"CREATE WINDOW w (v BIGINT) SIZE 3 SLIDE 1",
	} {
		if _, err := e.Execute(ddl, nil, &ExecCtx{}); err != nil {
			t.Fatalf("setup %q: %v", ddl, err)
		}
	}
	return e
}

func mustAccess(t *testing.T, e *Executor, stmt string) *AccessSet {
	t.Helper()
	p, err := e.Prepare(stmt)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", stmt, err)
	}
	if p.access == nil {
		t.Fatalf("Prepare(%q).access = nil for non-DDL", stmt)
	}
	return p.access
}

func TestStatementAccessEmission(t *testing.T) {
	e := accessExec(t)
	cases := []struct {
		stmt   string
		reads  []string
		writes []string
	}{
		{"SELECT bal FROM acct WHERE id = ?", []string{"acct"}, nil},
		{"SELECT a.bal, b.note FROM acct a JOIN audit b ON b.id = a.id", []string{"acct", "audit"}, nil},
		{"INSERT INTO audit VALUES (?, ?)", nil, []string{"audit"}},
		{"INSERT INTO audit SELECT id, 'x' FROM acct", []string{"acct"}, []string{"audit"}},
		{"UPDATE acct SET bal = bal + 1 WHERE id = ?", nil, []string{"acct"}},
		{"DELETE FROM audit WHERE id = ?", nil, []string{"audit"}},
		// Window tables are writes even for reads: maintained-aggregate
		// reads mutate lazily.
		{"SELECT COUNT(*) FROM w", nil, []string{"w"}},
		{"INSERT INTO sin VALUES (?, ?)", nil, []string{"sin"}},
	}
	for _, c := range cases {
		acc := mustAccess(t, e, c.stmt)
		if !reflect.DeepEqual(acc.Reads, c.reads) || !reflect.DeepEqual(acc.Writes, c.writes) {
			t.Errorf("%q: got reads=%v writes=%v, want reads=%v writes=%v",
				c.stmt, acc.Reads, acc.Writes, c.reads, c.writes)
		}
	}
	// DDL has no bounded footprint.
	if p, err := e.Prepare("CREATE TABLE zz (id INT)"); err != nil {
		t.Fatal(err)
	} else if p.access != nil {
		t.Fatalf("DDL access = %v, want nil", p.access)
	}
}

func TestAccessSetOps(t *testing.T) {
	ab := NewAccessSet([]string{"B", "a", "a"}, []string{"C"})
	if got := ab.Reads; !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("normalize reads = %v", got)
	}
	cd := NewAccessSet(nil, []string{"d"})
	if ab.ConflictsWith(cd) || cd.ConflictsWith(ab) {
		t.Fatal("disjoint sets conflict")
	}
	ww := NewAccessSet(nil, []string{"c"})
	if !ab.ConflictsWith(ww) {
		t.Fatal("write-write overlap not a conflict")
	}
	rw := NewAccessSet([]string{"c"}, nil)
	if !ab.ConflictsWith(rw) || !rw.ConflictsWith(ab) {
		t.Fatal("read-write overlap not a conflict")
	}
	rr := NewAccessSet([]string{"a", "b"}, nil)
	if ab.ConflictsWith(rr) {
		t.Fatal("read-read overlap is not a conflict")
	}

	decl := NewAccessSet([]string{"a"}, []string{"b"})
	if !decl.Covers(NewAccessSet([]string{"a", "b"}, []string{"b"})) {
		t.Fatal("declared set should cover reads of its own writes")
	}
	if decl.Covers(NewAccessSet(nil, []string{"a"})) {
		t.Fatal("write to a read-only table covered")
	}
	if decl.Covers(NewAccessSet([]string{"z"}, nil)) {
		t.Fatal("undeclared read covered")
	}
	if err := decl.Check(nil); err == nil {
		t.Fatal("nil statement access (DDL) passed Check")
	}
	if err := decl.Check(NewAccessSet(nil, []string{"z"})); err == nil {
		t.Fatal("out-of-set write passed Check")
	}
	if err := decl.Check(NewAccessSet([]string{"a"}, []string{"b"})); err != nil {
		t.Fatalf("in-set access failed Check: %v", err)
	}
}

func TestExecCtxAllowedEnforced(t *testing.T) {
	e := accessExec(t)
	if _, err := e.Execute("INSERT INTO acct VALUES (1, 10)", nil, &ExecCtx{}); err != nil {
		t.Fatal(err)
	}
	ok := &ExecCtx{Allowed: NewAccessSet(nil, []string{"acct"})}
	if _, err := e.Execute("UPDATE acct SET bal = bal + 1 WHERE id = 1", nil, ok); err != nil {
		t.Fatalf("in-set statement rejected: %v", err)
	}
	bad := &ExecCtx{Allowed: NewAccessSet(nil, []string{"audit"})}
	if _, err := e.Execute("UPDATE acct SET bal = bal + 1 WHERE id = 1", nil, bad); err == nil {
		t.Fatal("out-of-set statement ran")
	}
	if _, err := e.Execute("CREATE TABLE zz (id INT)", nil, bad); err == nil {
		t.Fatal("DDL ran under a declared access set")
	}
	// Trigger statements are checked against the same ctx: a declared
	// set that misses the trigger's target rejects the insert.
	if err := e.AddTrigger(&Trigger{Table: "sin", Stmts: []string{"INSERT INTO audit SELECT id, 'seen' FROM sin"}}); err != nil {
		t.Fatal(err)
	}
	sinOnly := &ExecCtx{BatchID: 1, Allowed: NewAccessSet(nil, []string{"sin"})}
	if _, err := e.Execute("INSERT INTO sin VALUES (1, 2)", nil, sinOnly); err == nil {
		t.Fatal("trigger statement escaped the declared access set")
	}
	full := &ExecCtx{BatchID: 2, Allowed: NewAccessSet(nil, []string{"sin", "audit"})}
	if _, err := e.Execute("INSERT INTO sin VALUES (2, 3)", nil, full); err != nil {
		t.Fatalf("covered trigger rejected: %v", err)
	}
}

// The //sstore:allocgate markers pair with //sstore:nomalloc
// annotations in access.go; the allocgate analyzer enforces parity.

//sstore:allocgate overlapSorted
//sstore:allocgate containsSorted
//sstore:allocgate AccessSet.ConflictsWith
//sstore:allocgate AccessSet.Covers
func TestAccessSetOpsAllocFree(t *testing.T) {
	a := NewAccessSet([]string{"alpha", "beta"}, []string{"gamma"})
	b := NewAccessSet([]string{"delta"}, []string{"beta"})
	c := NewAccessSet([]string{"alpha"}, nil)
	if n := testing.AllocsPerRun(1000, func() {
		if !a.ConflictsWith(b) || a.ConflictsWith(c) {
			t.Fatal("conflict answers changed")
		}
		if !a.Covers(c) || a.Covers(b) {
			t.Fatal("covers answers changed")
		}
		if !overlapSorted(a.Reads, c.Reads) || !containsSorted(a.Reads, "beta") {
			t.Fatal("set op answers changed")
		}
	}); n != 0 {
		t.Fatalf("access-set ops allocate %v/op; the dispatcher runs them per queued task", n)
	}
}
