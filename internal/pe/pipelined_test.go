package pe

import (
	"errors"
	"testing"

	"sstore/internal/recovery"
	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/wal"
	"sstore/internal/workflow"
)

// Pipelined group commit tests: partitions execute ahead of the fsync
// and every client-visible reply waits on the partition's release
// queue until the log is durable at the state it may reveal.

// pipelinedOpts is a one-partition strong-recovery engine under
// SyncGroup with its log and snapshots in dir.
func pipelinedOpts(dir string) Options {
	return Options{
		Recovery:    recovery.ModeStrong,
		LogPath:     dir,
		LogPolicy:   wal.SyncGroup,
		SnapshotDir: dir,
	}
}

// deployKeep installs a one-SP workflow whose border TE keeps every
// ingested id in the table seen, plus OLTP procedures Put (insert one
// id) and Count (read-only).
func deployKeep(t *testing.T, e *Engine) {
	t.Helper()
	for _, ddl := range []string{
		"CREATE STREAM ids_in (id BIGINT)",
		"CREATE TABLE seen (id BIGINT)",
	} {
		if err := e.ExecDDL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, sp := range []*StoredProc{
		{Name: "Keep", Func: func(ctx *ProcCtx) error {
			_, err := ctx.Query("INSERT INTO seen SELECT id FROM ids_in")
			return err
		}},
		{Name: "Put", Func: func(ctx *ProcCtx) error {
			_, err := ctx.Query("INSERT INTO seen VALUES (?)", ctx.Params()[0])
			return err
		}},
		{Name: "Count", Func: func(ctx *ProcCtx) error {
			res, err := ctx.Query("SELECT COUNT(*) FROM seen")
			if err != nil {
				return err
			}
			ctx.SetResult(res)
			return nil
		}},
	} {
		if err := e.RegisterProc(sp); err != nil {
			t.Fatal(err)
		}
	}
	w, err := workflow.New("keep", []workflow.Node{{SP: "Keep", Input: "ids_in"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DeployWorkflow(w); err != nil {
		t.Fatal(err)
	}
}

func countSeen(t *testing.T, e *Engine) int64 {
	t.Helper()
	res, err := e.Call("Count", nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int()
}

// TestPipelinedGroupCommitSaturation keeps 256 border TEs in flight on
// one partition: the partition runs ahead of the fsync, so one sync
// covers many commits; Drain returns only with the log durable at the
// last sequence number; and recovery finds every acknowledged batch
// exactly once.
func TestPipelinedGroupCommitSaturation(t *testing.T) {
	const n = 256
	dir := t.TempDir()
	e, err := NewEngine(pipelinedOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	deployKeep(t, e)
	// Hold the partition on a control task while all n batches queue,
	// so they are in flight together rather than trickling in.
	gate := make(chan struct{})
	hold := getTask()
	hold.control = func(*partition) error { <-gate; return nil }
	if !e.part(0).sched.PushBack(hold) {
		t.Fatal("engine closed")
	}
	acks := make([]<-chan error, 0, n)
	for id := int64(1); id <= n; id++ {
		ack, err := e.IngestAsync("ids_in", &stream.Batch{ID: id, Rows: []types.Row{{types.NewInt(id)}}})
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack)
	}
	close(gate)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	// The log reports durability to the release queue before it wakes
	// WaitDurable, so the queue's mark is the log's durable LSN here.
	q := e.part(0).release
	q.mu.Lock()
	durable := q.durable
	q.mu.Unlock()
	if last := e.logs.LastSeq(); durable != last {
		t.Errorf("Drain returned with the log durable at %d, last sequence %d", durable, last)
	}
	for i, ack := range acks {
		if err := <-ack; err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
	}
	st := e.Stats()
	t.Logf("%d syncs for %d appends", st.LogSyncs, st.LogAppends)
	if st.LogAppends != n {
		t.Errorf("log appends = %d, want %d", st.LogAppends, n)
	}
	// At least four commits per sync; under the race detector, which
	// slows execution but not the disk, four per three syncs.
	maxSyncs := st.LogAppends / 4
	if raceDetector {
		maxSyncs = st.LogAppends * 3 / 4
	}
	if st.LogSyncs > maxSyncs {
		t.Errorf("%d syncs for %d appends: group commit is not grouping", st.LogSyncs, st.LogAppends)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newEngine(t, pipelinedOpts(dir))
	deployKeep(t, e2)
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	res, err := e2.Read(0, "SELECT id FROM seen")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]int)
	for _, row := range res.Rows {
		seen[row[0].Int()]++
	}
	for id := int64(1); id <= n; id++ {
		if seen[id] != 1 {
			t.Errorf("batch %d recovered %d times, want exactly once", id, seen[id])
		}
	}
	if len(res.Rows) != n {
		t.Errorf("recovered %d rows, want %d", len(res.Rows), n)
	}
}

// TestPipelinedReadOnlyCallNotLogged: a client Call that writes nothing
// costs no log record, and recovery still rebuilds the same state.
func TestPipelinedReadOnlyCallNotLogged(t *testing.T) {
	dir := t.TempDir()
	e, err := NewEngine(pipelinedOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	deployKeep(t, e)
	for id := int64(1); id <= 3; id++ {
		if _, err := e.Call("Put", types.Row{types.NewInt(id)}); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Stats().LogAppends
	if got := countSeen(t, e); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if after := e.Stats().LogAppends; after != before {
		t.Errorf("read-only Call appended %d log records", after-before)
	}
	if _, err := e.Call("Put", types.Row{types.NewInt(4)}); err != nil {
		t.Fatal(err)
	}
	if after := e.Stats().LogAppends; after != before+1 {
		t.Errorf("writing Call appended %d log records, want 1", after-before)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newEngine(t, pipelinedOpts(dir))
	deployKeep(t, e2)
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := countSeen(t, e2); got != 4 {
		t.Errorf("recovered count = %d, want 4", got)
	}
}

// TestPipelinedRoutedRecovery runs the routed pipeline across four
// partitions under SyncGroup: relocated batches wait for the
// producer's log before leaving its partition, and recovery rebuilds
// every tuple on the partition that owned it.
func TestPipelinedRoutedRecovery(t *testing.T) {
	const parts, n = 4, 64
	dir := t.TempDir()
	opts := routedLogOpts(dir, parts, recovery.ModeStrong)
	opts.LogPolicy = wal.SyncGroup
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	deployRoutedPipeline(t, e)
	var acks []<-chan error
	for i := int64(0); i < n; i++ {
		ack, err := e.IngestAsync("jobs_in", &stream.Batch{ID: i + 1, Rows: []types.Row{{types.NewInt(i % 4), types.NewInt(i)}}})
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack)
	}
	for i, ack := range acks {
		if err := <-ack; err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := e.TriggerErr(); err != nil {
		t.Fatal(err)
	}
	want := resultsAcross(t, e, parts)
	if len(want) != n {
		t.Fatalf("live run produced %d results, want %d", len(want), n)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newEngine(t, opts)
	deployRoutedPipeline(t, e2)
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	got := resultsAcross(t, e2, parts)
	if len(got) != len(want) {
		t.Fatalf("recovered %d results, want %d", len(got), len(want))
	}
	for v, part := range want {
		if got[v] != part {
			t.Errorf("value %d recovered on partition %d, want %d", v, got[v], part)
		}
	}
}

// TestSyncFailureReleaseQueue drives a release queue's callback the
// way a failing log does: replies parked above the durable LSN, then a
// sync error. Parked replies and every later one carry the error, and
// nothing above the last good durable LSN leaves with a nil error.
func TestSyncFailureReleaseQueue(t *testing.T) {
	q := &releaseQueue{}
	injected := errors.New("injected sync failure")
	reply := func() chan callResult { return make(chan callResult, 1) }
	ok := callResult{res: &Result{}}

	early := reply()
	q.put(0, early, ok) // nothing appended yet: leaves at once
	parked := []chan callResult{reply(), reply(), reply()}
	for i, ch := range parked {
		q.put(uint64(10+i), ch, ok)
	}
	q.release(10, nil) // covers the first parked reply only
	for i, ch := range append([]chan callResult{early}, parked...) {
		select {
		case r := <-ch:
			if i > 1 {
				t.Fatalf("reply %d (LSN above the durable 10) left early", i)
			}
			if r.err != nil {
				t.Fatalf("reply %d: %v", i, r.err)
			}
		default:
			if i <= 1 {
				t.Fatalf("reply %d covered by the durable LSN is still parked", i)
			}
		}
	}

	q.release(10, injected)
	for i, ch := range parked[1:] {
		select {
		case r := <-ch:
			if !errors.Is(r.err, injected) || r.res != nil {
				t.Errorf("parked reply %d after the failure = (%v, %v), want the sync error", i, r.res, r.err)
			}
		default:
			t.Errorf("parked reply %d was not released by the failure", i)
		}
	}
	// Later replies — even at LSNs already durable, and after a stray
	// success callback — carry the sticky error at once.
	q.release(20, nil)
	for _, lsn := range []uint64{5, 12, 30} {
		ch := reply()
		q.put(lsn, ch, ok)
		select {
		case r := <-ch:
			if !errors.Is(r.err, injected) {
				t.Errorf("reply at LSN %d after the failure = %v, want the sync error", lsn, r.err)
			}
		default:
			t.Errorf("reply at LSN %d parked on a failed queue", lsn)
		}
	}
}

// TestSyncFailureFailsEngineReplies feeds a live engine's release-queue
// callback a sync error: from then on Call results, ingest acks and
// control-task replies all carry it, and none is acknowledged.
func TestSyncFailureFailsEngineReplies(t *testing.T) {
	e := newEngine(t, pipelinedOpts(t.TempDir()))
	deployKeep(t, e)
	if _, err := e.Call("Put", types.Row{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	p := e.part(0)
	injected := errors.New("injected sync failure")
	p.release.release(0, injected)

	if _, err := e.Call("Put", types.Row{types.NewInt(2)}); !errors.Is(err, injected) {
		t.Errorf("Call after the failure = %v, want the sync error", err)
	}
	if _, err := e.Call("Count", nil); !errors.Is(err, injected) {
		t.Errorf("read-only Call after the failure = %v, want the sync error", err)
	}
	if err := e.IngestSync("ids_in", &stream.Batch{ID: 1, Rows: []types.Row{{types.NewInt(3)}}}); !errors.Is(err, injected) {
		t.Errorf("ingest ack after the failure = %v, want the sync error", err)
	}
	ack, err := e.IngestAsync("ids_in", &stream.Batch{ID: 2, Rows: []types.Row{{types.NewInt(4)}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ack; !errors.Is(err, injected) {
		t.Errorf("async ingest ack after the failure = %v, want the sync error", err)
	}
	if err := e.onPartition(p, func(*partition) error { return nil }); !errors.Is(err, injected) {
		t.Errorf("control reply after the failure = %v, want the sync error", err)
	}
}
