package pe

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sstore/internal/stream"
	"sstore/internal/txn"
	"sstore/internal/types"
	"sstore/internal/workflow"
)

// deployRoutedPipeline wires the two-step workflow used by the routing
// tests: a border SP on the ingest partition copies each batch from
// "jobs_in" to "jobs", and an interior SP — routed by the batch's key —
// records (partition, key, value) into "results".
func deployRoutedPipeline(t *testing.T, e *Engine) {
	t.Helper()
	for _, ddl := range []string{
		"CREATE STREAM jobs_in (k BIGINT, v BIGINT)",
		"CREATE STREAM jobs (k BIGINT, v BIGINT)",
		"CREATE TABLE results (part BIGINT, k BIGINT, v BIGINT)",
	} {
		if err := e.ExecDDL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RegisterProc(&StoredProc{Name: "Split", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO jobs SELECT k, v FROM jobs_in")
		return err
	}}); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProc(&StoredProc{Name: "Work", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO results SELECT ?, k, v FROM jobs", types.NewInt(int64(ctx.Partition())))
		return err
	}}); err != nil {
		t.Fatal(err)
	}
	w, err := workflow.New("routed", []workflow.Node{
		{SP: "Split", Input: "jobs_in", Outputs: []string{"jobs"}},
		{SP: "Work", Input: "jobs"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DeployWorkflow(w); err != nil {
		t.Fatal(err)
	}
}

// routeByKey sends border batches to partition 0 and interior "jobs"
// batches to the partition owning the batch's key.
func routeByKey(parts int) func(string, []types.Row) int {
	return func(streamName string, batch []types.Row) int {
		if streamName != "jobs" || len(batch) == 0 {
			return 0
		}
		return int(batch[0][0].Int()) % parts
	}
}

// TestCrossPartitionInteriorRouting: with 4 partitions and a
// PartitionBy that spreads interior batches, a workflow fans out past
// its border partition while preserving batch order per (stream,
// partition) and garbage-collecting every consumed batch.
func TestCrossPartitionInteriorRouting(t *testing.T) {
	const parts = 4
	const batches = 32
	e := newEngine(t, Options{Partitions: parts, PartitionBy: routeByKey(parts)})
	deployRoutedPipeline(t, e)

	for i := int64(0); i < batches; i++ {
		b := &stream.Batch{ID: i + 1, Rows: []types.Row{{types.NewInt(i % parts), types.NewInt(i)}}}
		if err := e.Ingest("jobs_in", b); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := e.TriggerErr(); err != nil {
		t.Fatal(err)
	}

	total := 0
	for p := 0; p < parts; p++ {
		res, err := e.AdHoc(p, "SELECT part, k, v FROM results")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("partition %d did no interior work", p)
		}
		prev := int64(-1)
		for _, r := range res.Rows {
			if r[0].Int() != int64(p) {
				t.Errorf("partition %d recorded row for partition %d", p, r[0].Int())
			}
			if int(r[1].Int())%parts != p {
				t.Errorf("key %d routed to partition %d, want %d", r[1].Int(), p, r[1].Int()%int64(parts))
			}
			if r[2].Int() <= prev {
				t.Errorf("partition %d processed batches out of order: v=%d after v=%d", p, r[2].Int(), prev)
			}
			prev = r[2].Int()
		}
		total += len(res.Rows)
	}
	if total != batches {
		t.Errorf("results rows = %d, want %d", total, batches)
	}

	// Every consumed batch is GC'd: no stream rows survive anywhere.
	for p := 0; p < parts; p++ {
		infos, err := e.Tables(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, ti := range infos {
			if ti.Kind == "STREAM" && ti.Rows != 0 {
				t.Errorf("partition %d: stream %s holds %d rows after Drain", p, ti.Name, ti.Rows)
			}
		}
	}
}

// TestCrossPartitionFanOutGC: a relocated batch with two consumers is
// visible to both on the destination partition and garbage-collected
// only after the second commits — the GC refcount follows the batch.
func TestCrossPartitionFanOutGC(t *testing.T) {
	e := newEngine(t, Options{Partitions: 2, PartitionBy: func(streamName string, _ []types.Row) int {
		if streamName == "s_mid" {
			return 1 // every interior batch relocates off the border partition
		}
		return 0
	}})
	for _, ddl := range []string{
		"CREATE STREAM s_in (v BIGINT)",
		"CREATE STREAM s_mid (v BIGINT)",
		"CREATE TABLE sink_a (part BIGINT, v BIGINT)",
		"CREATE TABLE sink_b (part BIGINT, v BIGINT)",
	} {
		if err := e.ExecDDL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	e.RegisterProc(&StoredProc{Name: "Fan", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO s_mid SELECT v FROM s_in")
		return err
	}})
	mkConsumer := func(name, sink string) *StoredProc {
		return &StoredProc{Name: name, Func: func(ctx *ProcCtx) error {
			_, err := ctx.Query("INSERT INTO "+sink+" SELECT ?, v FROM s_mid", types.NewInt(int64(ctx.Partition())))
			return err
		}}
	}
	e.RegisterProc(mkConsumer("ConsumerA", "sink_a"))
	e.RegisterProc(mkConsumer("ConsumerB", "sink_b"))
	w, err := workflow.New("fan", []workflow.Node{
		{SP: "Fan", Input: "s_in", Outputs: []string{"s_mid"}},
		{SP: "ConsumerA", Input: "s_mid"},
		{SP: "ConsumerB", Input: "s_mid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DeployWorkflow(w); err != nil {
		t.Fatal(err)
	}
	const batches = 5
	for b := int64(1); b <= batches; b++ {
		if err := e.Ingest("s_in", &stream.Batch{ID: b, Rows: []types.Row{{types.NewInt(b)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := e.TriggerErr(); err != nil {
		t.Fatal(err)
	}
	for _, sink := range []string{"sink_a", "sink_b"} {
		res, err := e.AdHoc(1, "SELECT part FROM "+sink)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != batches {
			t.Errorf("%s rows = %d, want %d", sink, len(res.Rows), batches)
		}
		for _, r := range res.Rows {
			if r[0].Int() != 1 {
				t.Errorf("%s consumer ran on partition %d, want 1", sink, r[0].Int())
			}
		}
	}
	for p := 0; p < 2; p++ {
		res, err := e.AdHoc(p, "SELECT COUNT(*) FROM s_mid")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int() != 0 {
			t.Errorf("partition %d: s_mid holds %v rows after Drain", p, res.Rows[0][0])
		}
	}
}

// TestCrossPartitionAbortRetainsBatch: when the consumer of a
// relocated batch aborts, its rollback must not lose the batch — the
// rows exist only in the carrying task at that point. The failed batch
// stays in the destination's stream table, exactly like the
// local-dispatch abort semantics.
func TestCrossPartitionAbortRetainsBatch(t *testing.T) {
	e := newEngine(t, Options{Partitions: 2, PartitionBy: func(streamName string, _ []types.Row) int {
		if streamName == "s_mid" {
			return 1
		}
		return 0
	}})
	for _, ddl := range []string{
		"CREATE STREAM s_in (v BIGINT)",
		"CREATE STREAM s_mid (v BIGINT)",
		"CREATE TABLE sink (v BIGINT)",
	} {
		if err := e.ExecDDL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	e.RegisterProc(&StoredProc{Name: "Fwd", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO s_mid SELECT v FROM s_in")
		return err
	}})
	e.RegisterProc(&StoredProc{Name: "Flaky", Func: func(ctx *ProcCtx) error {
		if _, err := ctx.Query("INSERT INTO sink SELECT v FROM s_mid"); err != nil {
			return err
		}
		if ctx.BatchID() == 2 {
			return ctx.Abort("batch 2 is poison")
		}
		return nil
	}})
	w, err := workflow.New("flaky", []workflow.Node{
		{SP: "Fwd", Input: "s_in", Outputs: []string{"s_mid"}},
		{SP: "Flaky", Input: "s_mid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DeployWorkflow(w); err != nil {
		t.Fatal(err)
	}
	for b := int64(1); b <= 3; b++ {
		if err := e.Ingest("s_in", &stream.Batch{ID: b, Rows: []types.Row{{types.NewInt(b)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := e.TriggerErr(); err == nil {
		t.Fatal("poison batch's abort should surface via TriggerErr")
	}
	// Batch 2's own TE rolled back (its sink insert was undone), but
	// the batch is retained in the destination's stream table rather
	// than lost — so batch 3's consumer, which scans its whole input
	// stream like every SP here, sees rows 2 and 3. This matches the
	// local-dispatch retention semantics; before the retention fix the
	// sink read [1 3] and the batch existed nowhere.
	res, err := e.AdHoc(1, "SELECT v FROM sink")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].Int() != 1 || res.Rows[1][0].Int() != 2 || res.Rows[2][0].Int() != 3 {
		t.Errorf("sink rows = %v, want [1 2 3]", res.Rows)
	}
	mid, err := e.AdHoc(1, "SELECT v FROM s_mid")
	if err != nil {
		t.Fatal(err)
	}
	if len(mid.Rows) != 1 || mid.Rows[0][0].Int() != 2 {
		t.Errorf("s_mid rows = %v, want the retained poison batch [2]", mid.Rows)
	}
}

// TestIngestReleaseOnFailedEnqueue: an admission whose enqueue fails
// must be released so the client can retry; the seed burned the batch
// ID forever.
func TestIngestReleaseOnFailedEnqueue(t *testing.T) {
	e, err := NewEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ExecDDL("CREATE STREAM s1 (v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	e.RegisterProc(&StoredProc{Name: "SP1", Func: func(ctx *ProcCtx) error { return nil }})
	w, err := workflow.New("w", []workflow.Node{{SP: "SP1", Input: "s1"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DeployWorkflow(w); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("s1", &stream.Batch{ID: 1, Rows: []types.Row{{types.NewInt(1)}}}); err == nil {
		t.Fatal("ingest after Close should fail")
	} else if strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("ingest after Close failed as duplicate: %v", err)
	}
	if hi := e.part(0).ledger.High("s1"); hi != 0 {
		t.Errorf("failed enqueue left admission in the ledger: high = %d, want 0", hi)
	}
	// A second attempt must fail for the right reason (engine closed),
	// not as a duplicate.
	if err := e.Ingest("s1", &stream.Batch{ID: 1, Rows: []types.Row{{types.NewInt(1)}}}); err == nil || strings.Contains(err.Error(), "duplicate") {
		t.Errorf("retry after failed enqueue rejected as duplicate: %v", err)
	}
}

// TestNestedCommitErrorPropagates: a child whose commit fails must
// surface the error to the caller and must not count as executed.
func TestNestedCommitErrorPropagates(t *testing.T) {
	e := newEngine(t, Options{})
	if err := e.ExecDDL("CREATE TABLE t (v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	e.RegisterProc(&StoredProc{Name: "Good", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO t VALUES (1)")
		return err
	}})
	e.RegisterProc(&StoredProc{Name: "Sabotaged", Func: func(ctx *ProcCtx) error {
		// Commit the child's transaction from inside the body, so the
		// engine's own commit of this child fails afterwards.
		return ctx.ectx.Txn.(*txn.Txn).Commit()
	}})
	_, err := e.CallNested([]NestedCall{{SP: "Good"}, {SP: "Sabotaged"}})
	if err == nil {
		t.Fatal("commit failure must propagate to the caller")
	}
	if !strings.Contains(err.Error(), "commit") {
		t.Errorf("error should name the commit failure, got: %v", err)
	}
	if n := e.SPExecutions("Sabotaged"); n != 0 {
		t.Errorf("failed child counted as executed %d times", n)
	}
	if n := e.SPExecutions("Good"); n != 1 {
		t.Errorf("committed child executions = %d, want 1", n)
	}
}

// TestBatchRowsBorderOnly: ProcCtx.BatchRows hands the batch's tuples
// to border TEs only. Interior TEs get nil wherever they run — beside
// their producer, as a relocated batch's consumers on another
// partition, or as hand-off TEs — so an SP body cannot come to depend
// on where PartitionBy sent its batch.
func TestBatchRowsBorderOnly(t *testing.T) {
	for _, target := range []int{0, 1} {
		t.Run(fmt.Sprintf("interior-on-p%d", target), func(t *testing.T) {
			e := newEngine(t, Options{Partitions: 2, PartitionBy: func(s string, _ []types.Row) int {
				if s == "fan" {
					return target
				}
				return 0
			}})
			var mu sync.Mutex
			seen := make(map[string]int) // SP → rows BatchRows returned, summed
			record := func(ctx *ProcCtx) {
				mu.Lock()
				seen[ctx.SP()] += len(ctx.BatchRows())
				mu.Unlock()
			}
			for _, ddl := range []string{"CREATE STREAM fan_in (v BIGINT)", "CREATE STREAM fan (v BIGINT)"} {
				if err := e.ExecDDL(ddl); err != nil {
					t.Fatal(err)
				}
			}
			procs := map[string]ProcFunc{
				"Fan": func(ctx *ProcCtx) error {
					record(ctx)
					_, err := ctx.Query("INSERT INTO fan SELECT v FROM fan_in")
					return err
				},
				"A": func(ctx *ProcCtx) error { record(ctx); return nil },
				"B": func(ctx *ProcCtx) error { record(ctx); return nil },
			}
			for name, fn := range procs {
				if err := e.RegisterProc(&StoredProc{Name: name, Func: fn}); err != nil {
					t.Fatal(err)
				}
			}
			w, err := workflow.New("fan", []workflow.Node{
				{SP: "Fan", Input: "fan_in", Outputs: []string{"fan"}},
				{SP: "A", Input: "fan"},
				{SP: "B", Input: "fan"},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.DeployWorkflow(w); err != nil {
				t.Fatal(err)
			}
			for id := int64(1); id <= 3; id++ {
				if err := e.Ingest("fan_in", &stream.Batch{ID: id, Rows: []types.Row{{types.NewInt(id)}}}); err != nil {
					t.Fatal(err)
				}
			}
			_, ack, err := e.DeliverHandoff(0, 1, stream.Batch{Stream: "fan", ID: 100, Rows: []types.Row{{types.NewInt(100)}}})
			if err != nil {
				t.Fatal(err)
			}
			if err := <-ack; err != nil {
				t.Fatal(err)
			}
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			if err := e.TriggerErr(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			for sp, want := range map[string]int{"Fan": 3, "A": 0, "B": 0} {
				if seen[sp] != want {
					t.Errorf("%s: BatchRows returned %d rows over its TEs, want %d", sp, seen[sp], want)
				}
			}
		})
	}
}
