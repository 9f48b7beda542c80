package pe

import (
	"strings"
	"sync"
	"testing"

	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/workflow"
)

// TestPartitionLedgers: every partition admits ingested batches on its
// own exactly-once ledger. Four injectors, one per partition, send the
// same batch IDs concurrently — one shared ledger would reject three of
// them — and each partition rejects a re-sent ID. A border TE that
// aborts on one partition releases that partition's admission only.
func TestPartitionLedgers(t *testing.T) {
	const parts, n = 4, 50
	e := newEngine(t, Options{
		Partitions:  parts,
		PartitionBy: func(_ string, batch []types.Row) int { return int(batch[0][0].Int()) },
	})
	for _, ddl := range []string{
		"CREATE STREAM s (k BIGINT, v BIGINT)",
		"CREATE TABLE sink (k BIGINT, v BIGINT)",
	} {
		if err := e.ExecDDL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RegisterProc(&StoredProc{Name: "Take", Func: func(ctx *ProcCtx) error {
		if ctx.BatchRows()[0][1].Int() < 0 {
			return ctx.Abort("poison batch %d", ctx.BatchID())
		}
		_, err := ctx.Query("INSERT INTO sink SELECT k, v FROM s")
		return err
	}}); err != nil {
		t.Fatal(err)
	}
	w, err := workflow.New("w", []workflow.Node{{SP: "Take", Input: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DeployWorkflow(w); err != nil {
		t.Fatal(err)
	}
	batch := func(k, id, v int64) *stream.Batch {
		return &stream.Batch{ID: id, Rows: []types.Row{{types.NewInt(k), types.NewInt(v)}}}
	}

	var wg sync.WaitGroup
	for k := int64(0); k < parts; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := int64(1); id <= n; id++ {
				done, err := e.IngestAsync("s", batch(k, id, id))
				if err != nil {
					t.Errorf("partition %d batch %d: %v", k, id, err)
					return
				}
				if err := <-done; err != nil {
					t.Errorf("partition %d batch %d: %v", k, id, err)
					return
				}
			}
			if _, err := e.IngestAsync("s", batch(k, n, n)); err == nil || !strings.Contains(err.Error(), "duplicate") {
				t.Errorf("partition %d: re-sent batch %d admitted (err %v)", k, n, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for pid := 0; pid < parts; pid++ {
		if hi := e.part(pid).ledger.High("s"); hi != n {
			t.Errorf("partition %d ledger high = %d, want %d", pid, hi, n)
		}
	}

	// Batch n+1 commits on partitions 1..3 and aborts on partition 0.
	for k := int64(0); k < parts; k++ {
		v := int64(1)
		if k == 0 {
			v = -1
		}
		if err := e.IngestSync("s", batch(k, n+1, v)); (err != nil) != (k == 0) {
			t.Fatalf("partition %d batch %d: err = %v", k, n+1, err)
		}
	}
	for pid := 0; pid < parts; pid++ {
		want := int64(n + 1)
		if pid == 0 {
			want = n
		}
		if hi := e.part(pid).ledger.High("s"); hi != want {
			t.Errorf("after the abort, partition %d ledger high = %d, want %d", pid, hi, want)
		}
	}
	// The aborted batch retries cleanly on its partition; the committed
	// ones stay duplicates on theirs.
	if err := e.IngestSync("s", batch(0, n+1, 1)); err != nil {
		t.Errorf("retry of the aborted batch: %v", err)
	}
	for k := int64(1); k < parts; k++ {
		if err := e.IngestSync("s", batch(k, n+1, 1)); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("partition %d: committed batch %d re-admitted (err %v)", k, n+1, err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < parts; pid++ {
		res, err := e.AdHoc(pid, "SELECT COUNT(*) FROM sink")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != n+1 {
			t.Errorf("partition %d sink holds %d rows, want %d", pid, got, n+1)
		}
	}
	// A batch that names another stream is refused before admission, so
	// its ID stays free on the partition it routes to.
	named := batch(1, n+2, 1)
	named.Stream = "other"
	if err := e.IngestSync("s", named); err == nil {
		t.Error("batch naming stream other was ingested into s")
	}
	if hi := e.part(1).ledger.High("s"); hi != n+1 {
		t.Errorf("refused batch moved partition 1's ledger high to %d, want %d", hi, n+1)
	}
	named.Stream = "S" // stream names are case-insensitive
	if err := e.IngestSync("s", named); err != nil {
		t.Errorf("batch %d naming its own stream: %v", n+2, err)
	}
}
