package pe

import (
	"sync"
	"testing"

	"sstore/internal/recovery"
	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/wal"
	"sstore/internal/workflow"
)

// TestFanOutStreamGC: a stream with two PE-triggered consumers is
// garbage-collected only after both consumers commit.
func TestFanOutStreamGC(t *testing.T) {
	e := newEngine(t, Options{})
	for _, ddl := range []string{
		"CREATE STREAM s_in (v BIGINT)",
		"CREATE STREAM s_mid (v BIGINT)",
		"CREATE TABLE sink_a (v BIGINT)",
		"CREATE TABLE sink_b (v BIGINT)",
	} {
		if err := e.ExecDDL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	e.RegisterProc(&StoredProc{Name: "Fan", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO s_mid SELECT v FROM s_in")
		return err
	}})
	sawRows := make(map[string]int)
	var mu sync.Mutex
	mkConsumer := func(name, sink string) *StoredProc {
		return &StoredProc{Name: name, Func: func(ctx *ProcCtx) error {
			rows, err := ctx.Query("SELECT v FROM s_mid")
			if err != nil {
				return err
			}
			mu.Lock()
			sawRows[name] += len(rows.Rows)
			mu.Unlock()
			_, err = ctx.Query("INSERT INTO " + sink + " SELECT v FROM s_mid")
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
	for b := int64(1); b <= 5; b++ {
		if err := e.IngestSync("s_in", &stream.Batch{ID: b, Rows: []types.Row{{types.NewInt(b)}}}); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if err := e.TriggerErr(); err != nil {
		t.Fatal(err)
	}
	// Both consumers saw every batch (the batch was not GC'd between
	// them), and the stream is empty afterwards.
	if sawRows["ConsumerA"] != 5 || sawRows["ConsumerB"] != 5 {
		t.Errorf("consumers saw %v, want 5 each", sawRows)
	}
	for _, q := range []string{"SELECT COUNT(*) FROM sink_a", "SELECT COUNT(*) FROM sink_b"} {
		res, _ := e.AdHoc(0, q)
		if res.Rows[0][0].Int() != 5 {
			t.Errorf("%s = %v, want 5", q, res.Rows[0][0])
		}
	}
	res, _ := e.AdHoc(0, "SELECT COUNT(*) FROM s_mid")
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("fan-out stream not GC'd: %v rows", res.Rows[0][0])
	}
}

// TestGroupCommitEndToEnd: with SyncGroup over sharded logs, commits
// land in each partition's own log (parallel flushers, no shared fsync
// queue) and the merged view reconstructs total commit order with no
// record lost.
func TestGroupCommitEndToEnd(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t, Options{
		Partitions:  2,
		Recovery:    recovery.ModeStrong,
		LogPath:     dir + "/cmd.log",
		LogPolicy:   wal.SyncGroup,
		SnapshotDir: dir,
		RouteCall: func(_ string, params types.Row) int {
			return int(params[0].Int()) % 2
		},
	})
	e.ExecDDL("CREATE TABLE t (v BIGINT)")
	e.RegisterProc(&StoredProc{Name: "P", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO t VALUES (?)", ctx.Params()[0])
		return err
	}})
	const n = 40
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Call("P", types.Row{types.NewInt(int64(i))})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	appends, syncs := e.Stats().LogAppends, e.Stats().LogSyncs
	if appends != n {
		t.Errorf("appends = %d, want %d", appends, n)
	}
	// Per-partition logs serve one serial commit at a time, so at the
	// engine level syncs tracks appends under SyncGroup (the win is
	// parallel, contention-free fsyncs, not within-log batching);
	// wal's TestGroupCommitReleasesWaiters asserts the batching of
	// concurrent waiters on a single log.
	if syncs == 0 || syncs > appends {
		t.Errorf("syncs = %d for %d appends", syncs, appends)
	}
	// Sharding is real: both partitions' logs hold records.
	for pid := 0; pid < 2; pid++ {
		recs, err := readLog(wal.PartitionPath(dir+"/cmd.log", pid))
		if err != nil || len(recs) == 0 {
			t.Errorf("partition %d log: %d records (%v)", pid, len(recs), err)
		}
	}
	// All records durable and replayable, and the merged view of the
	// two partition logs reconstructs total commit order.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.ReadSetMerged(dir + "/cmd.log")
	if err != nil || len(recs) != n {
		t.Fatalf("log has %d records (%v), want %d", len(recs), err, n)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatalf("merged replay out of order: LSN %d after %d", recs[i].LSN, recs[i-1].LSN)
		}
	}
}

// TestTimeBasedWindowThroughEngine exercises CREATE WINDOW ... ON col
// plus an EE trigger firing on time-driven slides.
func TestTimeBasedWindowThroughEngine(t *testing.T) {
	e := newEngine(t, Options{})
	if err := e.ExecDDLOwned("Feed",
		"CREATE WINDOW tw (v BIGINT, ts TIMESTAMP) SIZE 10 SLIDE 5 ON ts"); err != nil {
		t.Fatal(err)
	}
	e.ExecDDL("CREATE TABLE slide_log (n BIGINT)")
	if err := e.AddEETrigger("tw", "INSERT INTO slide_log SELECT COUNT(*) FROM tw"); err != nil {
		t.Fatal(err)
	}
	e.RegisterProc(&StoredProc{Name: "Feed", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO tw VALUES (?, ?)", ctx.Params()[0], ctx.Params()[1])
		return err
	}})
	// Timestamps 0..9 stay inside the first window; 12 slides it.
	for _, ts := range []int64{0, 3, 7, 9, 12} {
		if _, err := e.Call("Feed", types.Row{types.NewInt(ts), types.NewTimestamp(ts)}); err != nil {
			t.Fatal(err)
		}
	}
	res, _ := e.AdHoc(0, "SELECT COUNT(*) FROM slide_log")
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("slide trigger fired %v times, want 1", res.Rows[0][0])
	}
}

// TestHybridOLTPAndStreamingShareTables runs OLTP writes and a
// streaming workflow against the same table concurrently and checks
// the final count is exact — serial partitions mean no lost updates.
func TestHybridOLTPAndStreamingShareTables(t *testing.T) {
	e := newEngine(t, Options{})
	e.ExecDDL("CREATE STREAM ev (v BIGINT)")
	e.ExecDDL("CREATE TABLE counter (n BIGINT)")
	if _, err := e.AdHoc(0, "INSERT INTO counter VALUES (0)"); err != nil {
		t.Fatal(err)
	}
	e.RegisterProc(&StoredProc{Name: "StreamInc", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("UPDATE counter SET n = n + 1")
		return err
	}})
	e.RegisterProc(&StoredProc{Name: "OLTPInc", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("UPDATE counter SET n = n + 1")
		return err
	}})
	w, _ := workflow.New("inc", []workflow.Node{{SP: "StreamInc", Input: "ev"}})
	if err := e.DeployWorkflow(w); err != nil {
		t.Fatal(err)
	}
	const each = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for b := int64(1); b <= each; b++ {
			if err := e.IngestSync("ev", &stream.Batch{ID: b, Rows: []types.Row{{types.NewInt(b)}}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < each; i++ {
			if _, err := e.Call("OLTPInc", nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	e.Drain()
	res, _ := e.AdHoc(0, "SELECT n FROM counter")
	if res.Rows[0][0].Int() != 2*each {
		t.Errorf("counter = %v, want %d", res.Rows[0][0], 2*each)
	}
}
