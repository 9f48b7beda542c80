package pe

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/workflow"
)

// TestDeclaredStmtInParallelWave runs one declared statement in two TEs
// of the same Workers: 2 wave at once. Both bodies hold their Exec
// result across a rendezvous, so if the second run wrote into the
// first's scratch, one of them would read the other's row. CI runs the
// package under -race, which also checks the claim's handoff.
func TestDeclaredStmtInParallelWave(t *testing.T) {
	e := newEngine(t, Options{Workers: 2})
	if err := e.ExecDDL("CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 2; k++ {
		if err := e.ExecDDL(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", k, k*100)); err != nil {
			t.Fatal(err)
		}
	}
	gate := make(chan struct{})
	if err := e.RegisterProc(&StoredProc{Name: "Gate", Func: func(*ProcCtx) error {
		<-gate // serial-only: the probes queue behind it and leave as one run
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	var arrived sync.WaitGroup
	arrived.Add(2)
	together := make(chan struct{})
	go func() { arrived.Wait(); close(together) }()
	if err := e.RegisterProc(&StoredProc{
		Name:   "Probe",
		Stmts:  []string{"SELECT k, v FROM kv WHERE k = ?"},
		Access: &ProcAccess{Reads: []string{"kv"}},
		Func: func(ctx *ProcCtx) error {
			k := ctx.Params()[0]
			res, err := ctx.Exec(0, k)
			if err != nil {
				return err
			}
			arrived.Done()
			select {
			case <-together:
			case <-time.After(10 * time.Second):
				return fmt.Errorf("the two probes never ran at once")
			}
			if len(res.Rows) != 1 || res.Rows[0][0].Int() != k.Int() || res.Rows[0][1].Int() != 100*k.Int() {
				return fmt.Errorf("probe %v reads %v", k, res.Rows)
			}
			ctx.SetResult(res)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	gated := e.CallAsync("Gate", nil)
	probes := []<-chan CallResult{
		e.CallAsync("Probe", types.Row{types.NewInt(1)}),
		e.CallAsync("Probe", types.Row{types.NewInt(2)}),
	}
	close(gate)
	if r := <-gated; r.Err != nil {
		t.Fatal(r.Err)
	}
	for i, ch := range probes {
		r := <-ch
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if k := int64(i + 1); len(r.Res.Rows) != 1 || r.Res.Rows[0][1].Int() != 100*k {
			t.Fatalf("probe %d replied %v", k, r.Res.Rows)
		}
	}
	if s := e.Stats(); s.PeakConcurrent < 2 {
		t.Fatalf("peak concurrency %d, want the probes in one wave", s.PeakConcurrent)
	}
}

// TestBorderBatchFiresTriggerPerRow: border rows enter their stream
// through one compiled INSERT per row, so a stream's EE trigger fires
// once per row of the batch — three times for a 3-row batch.
func TestBorderBatchFiresTriggerPerRow(t *testing.T) {
	e := newEngine(t, Options{})
	for _, ddl := range []string{
		"CREATE STREAM bin (v BIGINT)",
		"CREATE TABLE fired (b BIGINT, n BIGINT)",
	} {
		if err := e.ExecDDL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddEETrigger("bin", "INSERT INTO fired SELECT ?, COUNT(*) FROM bin"); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProc(&StoredProc{Name: "Sink", Func: func(*ProcCtx) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	w, err := workflow.New("border-trigger", []workflow.Node{{SP: "Sink", Input: "bin"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DeployWorkflow(w); err != nil {
		t.Fatal(err)
	}
	rows := []types.Row{{types.NewInt(1)}, {types.NewInt(2)}, {types.NewInt(3)}}
	if err := e.IngestSync("bin", &stream.Batch{ID: 7, Rows: rows}); err != nil {
		t.Fatal(err)
	}
	res, err := e.AdHoc(0, "SELECT b, n FROM fired ORDER BY n")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("trigger fired %d times for a 3-row batch, want 3: %v", len(res.Rows), res.Rows)
	}
	for i, r := range res.Rows {
		if r[0].Int() != 7 || r[1].Int() != int64(i+1) {
			t.Fatalf("firing %d saw %v, want batch 7 with %d rows", i, r, i+1)
		}
	}
}

// TestNestedChildRunsDeclaredStmts: a nested transaction's children run
// their procedures' declared statements, and the group hands the
// statements' scratch back when it commits or rolls back. A TE that
// runs one declared statement twice gets the same Result both times
// only when it works on the statement's own scratch, so an ordinary TE
// after the groups checks that no child kept it. (Within a group, a
// later child of the same procedure may run on fresh scratch: the
// earlier child's claim lasts until the group ends.)
func TestNestedChildRunsDeclaredStmts(t *testing.T) {
	e := newEngine(t, Options{})
	if err := e.ExecDDL("CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProc(&StoredProc{
		Name:  "Put",
		Stmts: []string{"INSERT INTO kv VALUES (?, ?)", "SELECT v FROM kv WHERE k = ?"},
		Func: func(ctx *ProcCtx) error {
			k, v, ownScratch := ctx.Params()[0], ctx.Params()[1], ctx.Params()[2].Int() == 1
			if _, err := ctx.Exec(0, k, v); err != nil {
				return err
			}
			a, err := ctx.Exec(1, k)
			if err != nil {
				return err
			}
			b, err := ctx.Exec(1, k)
			if err != nil {
				return err
			}
			if len(b.Rows) != 1 || b.Rows[0][0].Int() != v.Int() {
				return fmt.Errorf("read back %v after writing %v", b.Rows, v)
			}
			if ownScratch && a != b {
				return fmt.Errorf("the second run got fresh scratch: the statement's own is still claimed")
			}
			if v.Int() < 0 {
				return ctx.Abort("negative value")
			}
			ctx.SetResult(b)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	put := func(k, v, ownScratch int64) types.Row {
		return types.Row{types.NewInt(k), types.NewInt(v), types.NewInt(ownScratch)}
	}
	res, err := e.CallNested([]NestedCall{{SP: "Put", Params: put(1, 10, 0)}, {SP: "Put", Params: put(2, 20, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 20 {
		t.Fatalf("nested group replied %v, want the last child's [20]", res.Rows)
	}
	if _, err := e.CallNested([]NestedCall{{SP: "Put", Params: put(3, 30, 0)}, {SP: "Put", Params: put(4, -1, 0)}}); err == nil {
		t.Fatal("a child's abort must fail the group")
	}
	if _, err := e.Call("Put", put(5, 50, 1)); err != nil {
		t.Fatal(err)
	}
	res2, err := e.AdHoc(0, "SELECT k FROM kv ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	var keys []int64
	for _, r := range res2.Rows {
		keys = append(keys, r[0].Int())
	}
	if fmt.Sprint(keys) != "[1 2 5]" {
		t.Fatalf("keys %v, want [1 2 5]: the committed group and the ordinary call only", keys)
	}
}
