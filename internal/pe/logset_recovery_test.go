package pe

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sstore/internal/recovery"
	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/wal"
	"sstore/internal/workflow"
)

// Sharded-command-log recovery tests: a multi-partition routed
// workflow crashes with one log file per partition; recovery
// merge-replays the shards in global commit order.

// routedLogOpts builds the standard 4-partition sharded-log options
// used by the tests below: logs live under dir as a directory layout.
func routedLogOpts(dir string, parts int, mode recovery.Mode) Options {
	return Options{
		Partitions:  parts,
		Recovery:    mode,
		LogPath:     dir,
		LogPolicy:   wal.SyncEachCommit,
		SnapshotDir: dir,
		PartitionBy: routeByKey(parts),
	}
}

// ingestRouted pushes n keyed batches through the routed pipeline.
func ingestRouted(t *testing.T, e *Engine, from, n int64) {
	t.Helper()
	for i := from; i < from+n; i++ {
		b := &stream.Batch{ID: i + 1, Rows: []types.Row{{types.NewInt(i % 4), types.NewInt(i)}}}
		if err := e.IngestSync("jobs_in", b); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := e.TriggerErr(); err != nil {
		t.Fatal(err)
	}
}

// resultsAcross collects the results table across all partitions,
// keyed by value (each ingested tuple lands on exactly one partition).
func resultsAcross(t *testing.T, e *Engine, parts int) map[int64]int64 {
	t.Helper()
	got := make(map[int64]int64)
	for pid := 0; pid < parts; pid++ {
		res, err := e.AdHoc(pid, "SELECT part, k, v FROM results")
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			if _, dup := got[row[2].Int()]; dup {
				t.Fatalf("value %d recovered onto two partitions", row[2].Int())
			}
			got[row[2].Int()] = row[0].Int()
		}
	}
	return got
}

// TestShardedRecoveryRoutedWorkflow is the acceptance scenario: a
// 4-partition routed workflow runs under strong logging, crashes, and
// a fresh engine merge-replays the four partition logs back to the
// same table state — every tuple on the partition that owned it.
func TestShardedRecoveryRoutedWorkflow(t *testing.T) {
	const parts = 4
	dir := t.TempDir()
	opts := routedLogOpts(dir, parts, recovery.ModeStrong)

	e1 := newEngine(t, opts)
	deployRoutedPipeline(t, e1)
	ingestRouted(t, e1, 0, 16)
	want := resultsAcross(t, e1, parts)
	e1.Close() // crash: memory gone, sharded logs durable

	// All four partition logs exist and carry records.
	for pid := 0; pid < parts; pid++ {
		recs, err := readLog(wal.PartitionPath(dir, pid))
		if err != nil || len(recs) == 0 {
			t.Fatalf("partition %d log: %d records (%v)", pid, len(recs), err)
		}
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
	// The engine keeps working with the sequence re-armed past the
	// replayed records: new traffic logs fresh LSNs, above every
	// replayed one, and lands cleanly.
	replayed, err := wal.ReadSetMerged(dir)
	if err != nil {
		t.Fatal(err)
	}
	maxReplayed := replayed[len(replayed)-1].LSN
	ingestRouted(t, e2, 16, 4)
	if n := len(resultsAcross(t, e2, parts)); n != len(want)+4 {
		t.Errorf("post-recovery results = %d, want %d", n, len(want)+4)
	}
	all, err := wal.ReadSetMerged(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) <= len(replayed) {
		t.Fatalf("post-recovery traffic logged nothing (%d records, %d before)", len(all), len(replayed))
	}
	for i, r := range all {
		if old := i < len(replayed); old != (r.LSN <= maxReplayed) {
			t.Fatalf("record %d has LSN %d against %d replayed records up to LSN %d: new commits must number above them",
				i, r.LSN, len(replayed), maxReplayed)
		}
	}
}

// TestShardedRecoveryTornTailsOnTwoLogs crashes with torn tails on two
// *different* partition logs; each shard drops only its own tail and
// recovery replays the remaining records in global order.
func TestShardedRecoveryTornTailsOnTwoLogs(t *testing.T) {
	const parts = 4
	dir := t.TempDir()
	opts := routedLogOpts(dir, parts, recovery.ModeStrong)

	e1 := newEngine(t, opts)
	deployRoutedPipeline(t, e1)
	ingestRouted(t, e1, 0, 12)
	e1.Close()

	// Tear two shards differently: garbage appended to partition 1,
	// a half-written record on partition 2.
	for _, tear := range []struct {
		pid  int
		mode string
	}{{1, "garbage"}, {2, "truncate"}} {
		path := wal.PartitionPath(dir, tear.pid)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if tear.mode == "garbage" {
			data = append(data, 0xba, 0xad, 0xf0)
		} else {
			data = data[:len(data)-5]
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e2 := newEngine(t, opts)
	deployRoutedPipeline(t, e2)
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	got := resultsAcross(t, e2, parts)
	// Partition 2 lost its final interior record, so one value may be
	// missing or re-derived; everything intact must be present.
	// Partitions 0 and 3 are untouched: all their values survive.
	for v := int64(0); v < 12; v++ {
		pid := int(v % parts)
		if pid == 1 || pid == 2 {
			continue // torn shards may legitimately lose their tail
		}
		if _, ok := got[v]; !ok {
			t.Errorf("value %d (untorn partition %d) lost", v, pid)
		}
	}
	// The garbage-only tear on partition 1 lost no intact record.
	for v := int64(0); v < 12; v++ {
		if int(v%parts) == 1 {
			if _, ok := got[v]; !ok {
				t.Errorf("value %d lost to garbage-only tear", v)
			}
		}
	}
}

// TestShardedRecoveryCompactionThenReplay checkpoints mid-run (which
// truncates every shard against the snapshot stamp), keeps running,
// crashes, and recovers: snapshot plus compacted shards replay to the
// full pre-crash state in global order, and nothing replays twice.
func TestShardedRecoveryCompactionThenReplay(t *testing.T) {
	const parts = 4
	dir := t.TempDir()
	opts := routedLogOpts(dir, parts, recovery.ModeStrong)

	e1 := newEngine(t, opts)
	deployRoutedPipeline(t, e1)
	ingestRouted(t, e1, 0, 8)
	if err := e1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stamp := e1.logs.LastSeq()
	// Every shard is truncated against the snapshot stamp.
	for pid := 0; pid < parts; pid++ {
		recs, err := readLog(wal.PartitionPath(dir, pid))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.LSN <= stamp {
				t.Fatalf("partition %d kept record %d at or below snapshot stamp %d", pid, r.LSN, stamp)
			}
		}
	}
	ingestRouted(t, e1, 8, 8)
	want := resultsAcross(t, e1, parts)
	if len(want) != 16 {
		t.Fatalf("pre-crash results = %d, want 16", len(want))
	}
	e1.Close()

	e2 := newEngine(t, opts)
	deployRoutedPipeline(t, e2)
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	got := resultsAcross(t, e2, parts)
	if len(got) != len(want) {
		t.Fatalf("recovered %d results, want %d (snapshot + compacted shard replay)", len(got), len(want))
	}
	for v, part := range want {
		if got[v] != part {
			t.Errorf("value %d on partition %d, want %d", v, got[v], part)
		}
	}
	// Replay respected global order across shards: batch IDs per
	// partition's results arrived in increasing order is implied by
	// the per-value equality above; additionally the dedup ledger is
	// ahead, so a replayed batch is rejected.
	if err := e2.Ingest("jobs_in", &stream.Batch{ID: 16, Rows: []types.Row{{types.NewInt(0), types.NewInt(99)}}}); err == nil {
		t.Error("replayed batch should be deduplicated after recovery")
	}
}

// TestRecoverAfterCheckpointKeepsSequenceAhead: a checkpoint empties
// the logs (compaction), so a recovery right after must re-arm the
// commit sequence from the snapshot stamp — otherwise commits made
// after that recovery would be stamped at or below the stamp and the
// *next* recovery's replay filter would silently drop them.
func TestRecoverAfterCheckpointKeepsSequenceAhead(t *testing.T) {
	const parts = 4
	dir := t.TempDir()
	opts := routedLogOpts(dir, parts, recovery.ModeStrong)

	e1 := newEngine(t, opts)
	deployRoutedPipeline(t, e1)
	ingestRouted(t, e1, 0, 5)
	if err := e1.Checkpoint(); err != nil { // logs compacted empty
		t.Fatal(err)
	}
	e1.Close()

	e2 := newEngine(t, opts)
	deployRoutedPipeline(t, e2)
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	ingestRouted(t, e2, 5, 3) // commits after a post-checkpoint recovery
	e2.Close()

	e3 := newEngine(t, opts)
	deployRoutedPipeline(t, e3)
	if err := e3.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := len(resultsAcross(t, e3, parts)); got != 8 {
		t.Errorf("recovered %d results, want 8 (post-checkpoint commits must replay)", got)
	}
}

// TestCheckpointGroundsInFlightRelocatedBatch: a batch relocated
// cross-partition can be sitting in the destination's queue — inside
// the carrying task, in no table — when a checkpoint cuts snapshots.
// The checkpoint barrier must ground it into the destination's stream
// table: its producer's log record is at or below the snapshot stamp
// and about to be compacted away, so an ungrounded batch would be
// durably committed yet unrecoverable.
func TestCheckpointGroundsInFlightRelocatedBatch(t *testing.T) {
	const parts = 2
	dir := t.TempDir()
	opts := routedLogOpts(dir, parts, recovery.ModeStrong)

	e1 := newEngine(t, opts)
	deployRoutedPipeline(t, e1)

	// Gate partition 0 so the border TE executes only after the
	// checkpoint has parked partition 1 — its dispatch then lands the
	// carrying task behind partition 1's barrier.
	gate := make(chan struct{})
	if !e1.parts[0].sched.PushBack(&task{control: func(p *partition) error {
		<-gate
		return nil
	}}) {
		t.Fatal("gate enqueue failed")
	}
	// Border batch whose interior consumer routes to partition 1.
	if err := e1.Ingest("jobs_in", &stream.Batch{ID: 1, Rows: []types.Row{{types.NewInt(1), types.NewInt(77)}}}); err != nil {
		t.Fatal(err)
	}
	ckpt := make(chan error, 1)
	go func() { ckpt <- e1.Checkpoint() }()
	// Open the gate only once partition 1 is parked at the barrier:
	// the engine's outstanding work is the gate, the border TE and both
	// barriers, and partition 1 has popped its own. The carrying task
	// then queues behind the barrier.
	outstanding := func() int64 {
		e1.idle.mu.Lock()
		defer e1.idle.mu.Unlock()
		return e1.idle.n
	}
	deadline := time.Now().Add(10 * time.Second)
	for outstanding() != 4 || e1.parts[1].sched.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("partition 1 not parked at the checkpoint barrier: %d tasks outstanding, %d queued on partition 1",
				outstanding(), e1.parts[1].sched.Len())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	if err := e1.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := e1.TriggerErr(); err != nil {
		t.Fatal(err)
	}
	if got := resultsAcross(t, e1, parts); len(got) != 1 || got[77] != 1 {
		t.Fatalf("live results = %v, want value 77 on partition 1", got)
	}
	e1.Close()
	// The barrier grounded the batch, so its consumer committed after
	// the snapshot stamp: the consumer's record survived the
	// checkpoint's log truncation. A consumer that ran before the
	// checkpoint would have been truncated away with its record.
	if recs, err := readLog(wal.PartitionPath(dir, 1)); err != nil || len(recs) != 1 || recs[0].SP != "Work" {
		t.Fatalf("partition 1 log after the checkpoint = %v (%v), want only the consumer's Work record", recs, err)
	}

	e2 := newEngine(t, opts)
	deployRoutedPipeline(t, e2)
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	got := resultsAcross(t, e2, parts)
	if len(got) != 1 || got[77] != 1 {
		t.Fatalf("recovered results = %v, want exactly value 77 on partition 1 (in-flight batch grounded into the snapshot)", got)
	}
}

// TestShardedRecoveryWeakMode runs the same routed workflow under weak
// logging: only border records are logged (one per batch, on the
// ingest partition's shard), and per-partition replay re-derives the
// interior TEs, routing them across partitions again.
func TestShardedRecoveryWeakMode(t *testing.T) {
	const parts = 4
	dir := t.TempDir()
	opts := routedLogOpts(dir, parts, recovery.ModeWeak)

	e1 := newEngine(t, opts)
	deployRoutedPipeline(t, e1)
	ingestRouted(t, e1, 0, 12)
	want := resultsAcross(t, e1, parts)
	if appends := e1.Stats().LogAppends; appends != 12 {
		t.Fatalf("weak mode logged %d records, want 12 border TEs", appends)
	}
	e1.Close()

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
			t.Errorf("value %d re-derived on partition %d, want %d", v, got[v], part)
		}
	}
}

// TestShardedRecoveryFanOutStream: strong replay of a fan-out
// workflow (one stream, two consumers — each logged as its own
// interior TE) must hand the produced batch to *both* consumers'
// replays: the replay stash keeps the batch until every consumer's
// record has taken it.
func TestShardedRecoveryFanOutStream(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Recovery:    recovery.ModeStrong,
		LogPath:     dir,
		LogPolicy:   wal.SyncEachCommit,
		SnapshotDir: dir,
	}
	build := func() *Engine {
		e := newEngine(t, opts)
		deployFanOutChain(t, e)
		return e
	}
	e1 := build()
	for b := int64(1); b <= 4; b++ {
		if err := e1.IngestSync("f_in", &stream.Batch{ID: b, Rows: []types.Row{{types.NewInt(b * 10)}}}); err != nil {
			t.Fatal(err)
		}
	}
	e1.Drain()
	if err := e1.TriggerErr(); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	e2 := build()
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"SELECT COUNT(*) FROM sink_a", "SELECT COUNT(*) FROM sink_b"} {
		res, err := e2.AdHoc(0, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int() != 4 {
			t.Errorf("%s = %v after recovery, want 4 (every consumer replays every batch)", q, res.Rows[0][0])
		}
	}
	// The fan-out stream is fully consumed and GC'd.
	res, _ := e2.AdHoc(0, "SELECT COUNT(*) FROM f_mid")
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("f_mid holds %v rows after recovery", res.Rows[0][0])
	}
}

// TestTornCheckpointLoadsCommittedGeneration: per-partition snapshot
// files are committed by the manifest; a crash between snapshot
// writes of a later checkpoint (simulated by a stray newer-generation
// file for one partition) must not mix stamps — recovery loads the
// manifest's complete generation and replays the logs from there.
func TestTornCheckpointLoadsCommittedGeneration(t *testing.T) {
	const parts = 2
	dir := t.TempDir()
	opts := routedLogOpts(dir, parts, recovery.ModeStrong)

	e1 := newEngine(t, opts)
	deployRoutedPipeline(t, e1)
	ingestRouted(t, e1, 0, 4)
	if err := e1.Checkpoint(); err != nil { // committed generation
		t.Fatal(err)
	}
	ingestRouted(t, e1, 4, 4) // logged past the checkpoint
	want := resultsAcross(t, e1, parts)
	e1.Close()

	// Simulate a second checkpoint torn mid-write: partition 0 got a
	// newer snapshot file, partition 1 did not, and the manifest was
	// never updated. The stray file must be ignored.
	stray := e1.part(0).genFile(dir, "", e1.logs.LastSeq()+100)
	src, err := os.ReadFile(findGenSnapshot(t, dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stray, src, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := newEngine(t, opts)
	deployRoutedPipeline(t, e2)
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	got := resultsAcross(t, e2, parts)
	if len(got) != len(want) {
		t.Fatalf("recovered %d results, want %d (stray generation must be ignored)", len(got), len(want))
	}
}

// findGenSnapshot returns the generation snapshot file of a partition.
func findGenSnapshot(t *testing.T, dir string, pid int) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	prefix := "snapshot.p" + string(rune('0'+pid)) + ".g"
	for _, ent := range ents {
		if len(ent.Name()) > len(prefix) && ent.Name()[:len(prefix)] == prefix {
			return dir + "/" + ent.Name()
		}
	}
	t.Fatalf("no generation snapshot for partition %d", pid)
	return ""
}

// TestWeakRecoveryRoutesReFiredBatches: batches parked in a producer's
// stream table at crash time re-fire through PartitionBy, so each
// consumer runs on (and writes to) the partition that owns the key —
// the placement live dispatch would have chosen — and each target
// partition's ledger admits the batches fired onto it.
func TestWeakRecoveryRoutesReFiredBatches(t *testing.T) {
	const parts = 2
	dir := t.TempDir()
	opts := routedLogOpts(dir, parts, recovery.ModeWeak)

	e1 := newEngine(t, opts)
	deployRoutedPipeline(t, e1)
	// Park the produced "jobs" batches on partition 0 by suppressing PE
	// triggers: the border TEs commit (and log) but the consumer never
	// fires. Keys 1, 0, 1 route batches 1 and 3 to partition 1 and
	// batch 2 to partition 0.
	e1.SetPETriggersEnabled(false)
	for i, kv := range [][2]int64{{1, 42}, {0, 7}, {1, 43}} {
		b := &stream.Batch{ID: int64(i + 1), Rows: []types.Row{{types.NewInt(kv[0]), types.NewInt(kv[1])}}}
		if err := e1.IngestSync("jobs_in", b); err != nil {
			t.Fatal(err)
		}
	}
	e1.Drain()
	if err := e1.Checkpoint(); err != nil { // snapshot holds the parked batch
		t.Fatal(err)
	}
	e1.Close()

	e2 := newEngine(t, opts)
	deployRoutedPipeline(t, e2)
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	got := resultsAcross(t, e2, parts)
	if len(got) != 3 || got[42] != 1 || got[7] != 0 || got[43] != 1 {
		t.Fatalf("re-fired batches landed as %v, want 42 and 43 on partition 1, 7 on partition 0", got)
	}
	for pid, want := range []int64{2, 3} {
		if hi := e2.part(pid).ledger.High("jobs"); hi != want {
			t.Errorf("partition %d ledger high on jobs = %d, want %d (the highest batch re-fired onto it)", pid, hi, want)
		}
	}
}

// truncateLastRecord drops the final framed record from a log file by
// walking the [u32 len | payload | u32 crc] frames.
func truncateLastRecord(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prev, off := 0, 0
	for off+8 <= len(data) {
		flen := 4 + int(uint32(data[off])|uint32(data[off+1])<<8|uint32(data[off+2])<<16|uint32(data[off+3])<<24) + 4
		if off+flen > len(data) {
			break
		}
		prev = off
		off += flen
	}
	if err := os.WriteFile(path, data[:prev], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRecoveryFanOutPartialCrash: the crash clipped the second
// consumer's record off the log (it never committed durably). Replay
// must re-execute ConsumerA from its record exactly once, then re-fire
// ONLY ConsumerB for the parked batch — re-firing both would
// double-apply ConsumerA.
func TestShardedRecoveryFanOutPartialCrash(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Recovery:    recovery.ModeStrong,
		LogPath:     dir,
		LogPolicy:   wal.SyncEachCommit,
		SnapshotDir: dir,
	}
	e1 := newEngine(t, opts)
	deployFanOutChain(t, e1)
	if err := e1.IngestSync("f_in", &stream.Batch{ID: 1, Rows: []types.Row{{types.NewInt(10)}}}); err != nil {
		t.Fatal(err)
	}
	e1.Drain()
	e1.Close()
	// Log: border Produce, interior ConsumerA, interior ConsumerB.
	// Clip ConsumerB's record: it is as if its TE never committed.
	truncateLastRecord(t, wal.PartitionPath(dir, 0))
	recs, err := readLog(wal.PartitionPath(dir, 0))
	if err != nil || len(recs) != 2 || recs[1].SP != "ConsumerA" {
		t.Fatalf("clipped log = %v (%v), want [Produce ConsumerA]", recs, err)
	}

	e2 := newEngine(t, opts)
	deployFanOutChain(t, e2)
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"SELECT COUNT(*) FROM sink_a", "SELECT COUNT(*) FROM sink_b"} {
		res, err := e2.AdHoc(0, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int() != 1 {
			t.Errorf("%s = %v after partial-crash recovery, want exactly 1", q, res.Rows[0][0])
		}
	}
}

// deployFanOutChain wires f_in -> Produce -> f_mid -> {ConsumerA -> sink_a,
// ConsumerB -> sink_b}.
func deployFanOutChain(t *testing.T, e *Engine) {
	t.Helper()
	for _, ddl := range []string{
		"CREATE STREAM f_in (v BIGINT)",
		"CREATE STREAM f_mid (v BIGINT)",
		"CREATE TABLE sink_a (v BIGINT)",
		"CREATE TABLE sink_b (v BIGINT)",
	} {
		if err := e.ExecDDL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	e.RegisterProc(&StoredProc{Name: "Produce", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO f_mid SELECT v FROM f_in")
		return err
	}})
	e.RegisterProc(&StoredProc{Name: "ConsumerA", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO sink_a SELECT v FROM f_mid")
		return err
	}})
	e.RegisterProc(&StoredProc{Name: "ConsumerB", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO sink_b SELECT v FROM f_mid")
		return err
	}})
	w, err := workflow.New("fan", []workflow.Node{
		{SP: "Produce", Input: "f_in", Outputs: []string{"f_mid"}},
		{SP: "ConsumerA", Input: "f_mid"},
		{SP: "ConsumerB", Input: "f_mid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DeployWorkflow(w); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverWithoutSnapshotDirIgnoresWorkingDir: an engine without a
// SnapshotDir can never have checkpointed, so recovery reads no
// manifest at all — not even one that happens to sit in the process's
// working directory.
func TestRecoverWithoutSnapshotDirIgnoresWorkingDir(t *testing.T) {
	cwd := t.TempDir()
	if err := os.WriteFile(filepath.Join(cwd, "snapshot.manifest"), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(cwd)
	opts := routedLogOpts(t.TempDir(), 2, recovery.ModeStrong)
	opts.SnapshotDir = ""
	e1 := newEngine(t, opts)
	deployRoutedPipeline(t, e1)
	ingestRouted(t, e1, 0, 4)
	e1.Close()

	e2 := newEngine(t, opts)
	deployRoutedPipeline(t, e2)
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := len(resultsAcross(t, e2, 2)); got != 4 {
		t.Errorf("recovered %d results, want 4", got)
	}
}

// readLog returns every intact record of one partition's log, stopping
// cleanly at a torn tail.
func readLog(path string) ([]*wal.Record, error) {
	r, err := wal.OpenReader(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var recs []*wal.Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}
