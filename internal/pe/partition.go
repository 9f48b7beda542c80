package pe

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"sstore/internal/ee"
	"sstore/internal/storage"
	"sstore/internal/stream"
	"sstore/internal/txn"
	"sstore/internal/types"
	"sstore/internal/wal"
)

// partition is one execution site: a catalog slice, an execution
// engine, and a scheduler drained by a single goroutine, so every
// transaction on the partition runs serially with no latching (§3.1).
type partition struct {
	id    int
	eng   *Engine
	cat   *storage.Catalog
	exec  *ee.Executor
	sched *scheduler
	// views is the snapshot read path's registry: the run loop
	// brackets every task so views pin on commit boundaries, and
	// tables detach copy-on-write images for pinned readers.
	views *storage.Views
	// readMu guards the off-loop read-plan cache.
	readMu    sync.Mutex
	readPlans map[string]*ee.ReadPlan
	// ddlMu serializes runtime DDL (and maintained-aggregate
	// registration) against off-loop plan compilation: compilation
	// reads table index lists and aggregate registrations from
	// arbitrary goroutines, which a CREATE INDEX / CREATE TABLE task
	// would otherwise mutate under its feet.
	ddlMu sync.RWMutex

	// par, when non-nil, holds the intra-partition worker pool and the
	// dispatcher's reusable buffers (Options.Workers > 1); nil keeps
	// the classic serial pop-execute loop.
	par *parallel
	// spAccess caches each SP's declared access set (nil entry =
	// cached "undeclared"); spWave caches wave eligibility. Both are
	// dispatcher-goroutine only.
	spAccess map[string]*ee.AccessSet
	spWave   map[string]bool

	nextTxn  uint64
	executed uint64
	aborted  uint64
	// txnFree/ectxFree/pcFree recycle partition-confined hot structs
	// (see pool.go); dispatcher-goroutine only.
	txnFree  []*txn.Txn
	ectxFree []*ee.ExecCtx
	pcFree   []*ProcCtx
	// lastTriggerErr remembers the most recent error of a TE that had
	// no reply channel (PE-triggered interior TEs); surfaced through
	// Engine.TriggerErr so workflow failures are not silent.
	// triggerErrs counts every such error cumulatively — TriggerErr
	// clears the last error on read, so intermediate failures would
	// otherwise vanish from the stats.
	lastTriggerErr error
	triggerErrs    atomic.Uint64
	// tasksParallel/tasksSerial split dispatcher-executed tasks by
	// path: wave members vs serial fallback (conflicting, serial-only,
	// control, or lone tasks). Zero on a classic serial partition.
	// peakConcurrent is the maximum number of TE bodies in flight at
	// once. All three are written by the dispatcher goroutine only but
	// are atomics because they tick after a task's reply is sent, so a
	// client reading Stats right after a Call would otherwise race.
	tasksParallel  atomic.Uint64
	tasksSerial    atomic.Uint64
	peakConcurrent atomic.Int64
	execBySP       map[string]uint64
	pendingGC      map[batchKey]int // batch → consumers yet to commit

	// stmts are each stored procedure's declared statements compiled
	// on this partition (RegisterProc); inserts is the compiled
	// border-row INSERT per stream. Both are written on the dispatcher
	// goroutine only — executeWave prefills inserts before a wave — so
	// worker bodies only read them.
	stmts   map[string][]*ee.Stmt
	inserts map[string]*ee.Stmt

	// durable is the partition's log, ledger and archive site (see
	// durability.go).
	durable

	done chan struct{}
}

// maxRun bounds how many queued tasks the dispatcher pops per run; it
// also sizes the preallocated spRun entries, so the no-conflict fast
// path allocates nothing per task beyond what serial execution does.
const maxRun = 32

// parallel is a partition's worker pool plus the dispatcher's
// preallocated run buffers.
type parallel struct {
	workers int
	// work feeds wave members to the worker goroutines; the dispatcher
	// blocks on wg until the whole wave's bodies finished.
	work chan *spRun
	wg   sync.WaitGroup

	runBuf  []*task         // PopRun destination, len maxRun
	accBuf  []*ee.AccessSet // access sets of the wave under construction
	entries []spRun         // per-wave execution state, len maxRun
}

// spRun is one transaction execution's state, split so a wave's bodies
// can run on workers while begin (txn-ID assignment) and retirement
// (log, commit, trigger dispatch, reply) stay on the dispatcher in
// admission order.
type spRun struct {
	t    *task
	sp   *StoredProc
	tx   *txn.Txn
	ectx *ee.ExecCtx
	pc   *ProcCtx
	err  error
}

// batchKey identifies one atomic batch: its stream's catalog key and
// its ID.
type batchKey struct {
	stream string
	id     int64
}

func keyOf(b stream.Batch) batchKey { return batchKey{stream: b.Stream, id: b.ID} }

func newPartition(id int, eng *Engine) *partition {
	cat := storage.NewCatalog()
	return &partition{
		id:        id,
		eng:       eng,
		cat:       cat,
		exec:      ee.NewExecutor(cat),
		sched:     newScheduler(),
		views:     storage.NewViews(cat),
		readPlans: make(map[string]*ee.ReadPlan),
		spAccess:  make(map[string]*ee.AccessSet),
		spWave:    make(map[string]bool),
		execBySP:  make(map[string]uint64),
		pendingGC: make(map[batchKey]int),
		stmts:     make(map[string][]*ee.Stmt),
		inserts:   make(map[string]*ee.Stmt),
		durable:   durable{ledger: stream.NewDedup()},
		done:      make(chan struct{}),
	}
}

// startWorkers arms the partition's parallel dispatcher with a worker
// pool of the given size.
func (p *partition) startWorkers(workers int) {
	p.par = &parallel{
		workers: workers,
		work:    make(chan *spRun, maxRun),
		runBuf:  make([]*task, maxRun),
		accBuf:  make([]*ee.AccessSet, 0, maxRun),
		entries: make([]spRun, maxRun),
	}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
}

// worker executes wave members' bodies; everything else about the TE
// stays on the dispatcher goroutine.
func (p *partition) worker() {
	for r := range p.par.work {
		p.runSPBody(r)
		p.par.wg.Done()
	}
}

// run is the partition goroutine: pop, execute, repeat. Each task's
// slot in the engine-wide quiesce counter is released only after
// execute returns, i.e. after the TE committed (or aborted) and its
// triggered children were enqueued — so Drain cannot observe a
// momentarily-empty queue while a workflow is still unfolding.
//
// With Options.Workers > 1 the goroutine is a dispatcher instead: it
// pops a run of queued tasks, partitions the run into waves of
// mutually non-conflicting TEs (by declared access sets), executes
// each wave's bodies concurrently on the worker pool, and retires them
// in admission order — txn-ID assignment, command log, Commit, trigger
// dispatch, reply, and views bracketing all stay here, so the logged
// schedule, replay, and snapshot read views are identical to serial
// execution.
func (p *partition) run() {
	defer close(p.done)
	if p.par == nil {
		for {
			t, ok := p.sched.Pop()
			if !ok {
				return
			}
			// Bracket the task for the snapshot read path: views pin only
			// between tasks, so they never see a half-executed (or not yet
			// rolled back) transaction.
			p.views.BeginTask()
			p.execute(t)
			p.views.EndTask()
			if p.sched.track != nil {
				p.sched.track.done()
			}
			putTask(t)
		}
	}
	defer close(p.par.work)
	for {
		n, wave, ok := p.sched.PopRun(p.par.runBuf, p.waveEligible)
		if !ok {
			return
		}
		if !wave || n == 1 {
			p.runSerialTask(p.par.runBuf[0])
			continue
		}
		p.runParallel(p.par.runBuf[:n])
	}
}

// runSerialTask executes one task exactly as the classic serial loop
// does: the in-order fallback for conflicting, serial-only, control,
// and lone tasks.
func (p *partition) runSerialTask(t *task) {
	p.views.BeginTask()
	p.execute(t)
	p.views.EndTask()
	p.tasksSerial.Add(1)
	if p.sched.track != nil {
		p.sched.track.done()
	}
	putTask(t)
}

// runParallel executes a popped run: greedy consecutive waves of
// mutually non-conflicting TEs. A wave ends at the first task whose
// declared access set conflicts with any wave member — it starts the
// next wave — so tasks never reorder across a conflict and the commit
// order is exactly admission order.
func (p *partition) runParallel(ts []*task) {
	i := 0
	for i < len(ts) {
		accs := p.par.accBuf[:0]
		j := i
		for j < len(ts) {
			acc := p.declaredAccess(ts[j].sp)
			if conflictsAny(accs, acc) {
				break
			}
			accs = append(accs, acc)
			j++
		}
		if j-i == 1 {
			p.runSerialTask(ts[i])
		} else {
			p.executeWave(ts[i:j])
		}
		i = j
	}
}

// executeWave runs a wave of mutually non-conflicting TEs: bodies
// concurrent on the worker pool, everything else on the dispatcher in
// admission order. The whole wave sits inside one BeginTask/EndTask
// bracket with AdvanceTask between retirements, so snapshot reads can
// never pin an interior boundary (wave bodies interleave their
// mutations, so interior boundaries never exist as physical states)
// while the completed-task count stays identical to serial execution.
func (p *partition) executeWave(ts []*task) {
	// Prefill the compiled border INSERTs on the dispatcher: workers
	// only read them. A miss here surfaces in the body, which fails with
	// the same error serial execution would report.
	for _, t := range ts {
		if len(t.in.Rows) > 0 && t.in.Stream != "" && t.kind != wal.KindInterior {
			_, _ = p.insertStmtFor(t.in.Stream)
		}
	}
	p.views.BeginTask()
	entries := p.par.entries[:len(ts)]
	for i, t := range ts {
		// Txn IDs are assigned here, in admission order, exactly as the
		// serial loop would.
		p.beginSP(&entries[i], t, p.eng.procs[t.sp], p.declaredAccess(t.sp))
	}
	p.par.wg.Add(len(entries))
	for i := range entries {
		p.par.work <- &entries[i]
	}
	p.par.wg.Wait()
	if c := int64(min(len(entries), p.par.workers)); c > p.peakConcurrent.Load() {
		p.peakConcurrent.Store(c)
	}
	for i := range entries {
		p.retireSP(&entries[i])
		t := entries[i].t
		p.recycleRun(&entries[i]) // zeroes the entry, releasing references
		putTask(t)
		p.tasksParallel.Add(1)
		if p.sched.track != nil {
			p.sched.track.done()
		}
		if i < len(entries)-1 {
			p.views.AdvanceTask()
		}
	}
	p.views.EndTask()
}

// execute runs one queued task on the partition goroutine (or, for a
// parallel partition, on the dispatcher as the serial fallback).
// Everything below here — SP bodies, commit, trigger dispatch — must
// compute the same state on a live run and on a serial replay of the
// command log; that obligation extends to the beginSP / runSPBody /
// retireSP pieces executeSP splits into, because the parallel
// dispatcher runs the same pieces — bodies on workers, begin and
// retirement on the dispatcher in admission order — and its result
// must be byte-identical to this serial path. Control thunks
// (t.control) are engine plumbing that runs outside the logged
// schedule and carries its own obligations.
//
//sstore:deterministic
func (p *partition) execute(t *task) {
	switch {
	case t.control != nil:
		err := t.control(p)
		p.replyTo(t, nil, err)
	case len(t.nested) > 0:
		p.executeNested(t)
	default:
		p.executeSP(t)
	}
}

// replyTo is the only way a TE's outcome leaves the partition. Under
// pipelined group commit the reply parks on the release queue until the
// log is durable at everything this partition appended so far — the
// state the reply may reveal — so no client ever sees un-durable state.
func (p *partition) replyTo(t *task, res *Result, err error) {
	if t.reply == nil {
		if err != nil {
			p.noteTriggerErr(err)
		}
		return
	}
	if p.release != nil {
		p.release.put(p.lsn, t.reply, callResult{res: res, err: err})
		return
	}
	t.reply <- callResult{res: res, err: err}
}

// noteTriggerErr records a reply-less failure: the cumulative counter
// for stats, the last error for Engine.TriggerErr.
func (p *partition) noteTriggerErr(err error) {
	p.triggerErrs.Add(1)
	p.lastTriggerErr = err
}

// executeSP runs one transaction execution end to end: body, command
// log, commit, PE-trigger dispatch, stream GC. The pieces — beginSP,
// runSPBody, retireSP — are shared with the parallel dispatcher, which
// runs bodies of non-conflicting TEs concurrently; here they run
// back-to-back on the partition goroutine.
func (p *partition) executeSP(t *task) {
	sp, ok := p.eng.procs[t.sp]
	if !ok {
		p.replyTo(t, nil, fmt.Errorf("pe: unknown stored procedure %q", t.sp))
		return
	}
	var r spRun
	p.beginSP(&r, t, sp, p.declaredAccess(t.sp))
	p.runSPBody(&r)
	p.retireSP(&r)
	p.recycleRun(&r)
}

// beginSP assigns the transaction ID and builds the execution state.
// Dispatcher-goroutine only, in admission order — so txn IDs are
// identical to serial execution regardless of how bodies interleave.
func (p *partition) beginSP(r *spRun, t *task, sp *StoredProc, allowed *ee.AccessSet) {
	tx := p.beginTxn()
	ectx := p.getECtx()
	ectx.Reset(t.sp, t.in.ID, tx, allowed)
	pc := p.getProcCtx()
	*pc = ProcCtx{part: p, ectx: ectx, params: t.params, in: t.in, stmts: p.stmts[t.sp]}
	if t.kind != wal.KindBorder {
		pc.in.Rows = nil
	}
	*r = spRun{t: t, sp: sp, tx: tx, ectx: ectx, pc: pc}
}

// runSPBody executes the TE's body — batch placement plus the
// procedure function — recording the outcome in r.err. This is the
// only piece that runs off the dispatcher goroutine (on a worker, for
// wave members); it touches only tables inside the TE's declared
// access set, r's own state, and the executor's locked plan cache.
func (p *partition) runSPBody(r *spRun) {
	t := r.t
	r.err = func() error {
		// Border TEs ingest their batch: the tuples are appended to
		// the input stream inside the TE, so batch arrival and its
		// processing commit atomically (§2.1). Interior TEs whose
		// batch was relocated here by cross-partition dispatch — and
		// hand-off TEs, whose batch arrived from another node — place
		// the moved rows the same way, but without re-firing EE
		// triggers: the rows already entered the system once, at the
		// producing partition.
		if len(t.in.Rows) > 0 && t.in.Stream != "" {
			if t.kind == wal.KindInterior || t.kind == wal.KindHandoff {
				if err := p.placeMovedBatch(t.in, r.tx); err != nil {
					return err
				}
			} else if err := p.insertBatch(t.in.Stream, t.in.Rows, r.ectx); err != nil {
				return err
			}
		}
		return r.sp.Func(r.pc)
	}()
}

// retireSP finishes the TE in admission order on the dispatcher
// goroutine: rollback on failure, else command log, commit, trigger
// dispatch, GC, and reply. An aborted wave member rolls back here —
// safe after other bodies ran, because wave write sets are disjoint.
func (p *partition) retireSP(r *spRun) {
	t := r.t
	err := r.err
	if err != nil {
		p.aborted++
		if rbErr := r.tx.Rollback(); rbErr != nil {
			err = fmt.Errorf("%w (rollback: %v)", err, rbErr)
		}
		p.retainRelocatedBatch(t)
		p.releaseBorderAdmission(t)
		p.replyTo(t, nil, err)
		return
	}
	if err := p.logCommit(t, r); err != nil {
		p.aborted++
		if rbErr := r.tx.Rollback(); rbErr != nil {
			err = fmt.Errorf("%w (rollback: %v)", err, rbErr)
		}
		p.retainRelocatedBatch(t)
		// Deliberately no releaseBorderAdmission here: a log append
		// can fail after the record's bytes reached the file (fsync
		// error, or a group sync that failed earlier and stopped the
		// log), so the batch may replay at recovery. Keeping the
		// admission rejects the retry as a duplicate — losing one
		// delivery attempt is recoverable; applying the batch twice is
		// not.
		p.replyTo(t, nil, fmt.Errorf("pe: command log: %w", err))
		return
	}
	if err := r.tx.Commit(); err != nil {
		p.replyTo(t, nil, err)
		return
	}
	p.executed++
	p.execBySP[t.sp]++
	p.afterCommit(t, r.ectx.Appends)
	var res *Result
	if t.reply != nil { // a PE-triggered TE has nobody to tell
		if res = r.pc.result; res == nil {
			res = &Result{}
		}
		res.LastInsertBatch = t.in.ID
	}
	p.replyTo(t, res, nil)
}

// insertStmtFor returns (compiling on first use) the statement that
// appends one row to a stream: INSERT INTO <stream> VALUES (?, …). It
// is written only by the dispatcher goroutine.
func (p *partition) insertStmtFor(streamName string) (*ee.Stmt, error) {
	if stmt, ok := p.inserts[streamName]; ok {
		return stmt, nil
	}
	tbl, err := p.cat.Get(streamName)
	if err != nil {
		return nil, err
	}
	ph := make([]string, tbl.Schema().Len())
	for i := range ph {
		ph[i] = "?"
	}
	stmt, err := p.exec.Declare("INSERT INTO " + streamName + " VALUES (" + strings.Join(ph, ", ") + ")")
	if err != nil {
		return nil, err
	}
	p.inserts[streamName] = stmt
	return stmt, nil
}

// insertBatch appends a batch's tuples to a stream table through the
// executor, one compiled INSERT per row, so EE triggers fire exactly
// as they would for any insert.
func (p *partition) insertBatch(streamName string, rows []types.Row, ectx *ee.ExecCtx) error {
	stmt, err := p.insertStmtFor(streamName)
	if err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := p.exec.Exec(stmt, row, ectx); err != nil {
			return err
		}
	}
	return nil
}

// placeMovedBatch restores a relocated batch's tuples into this
// partition's copy of the stream table, transactionally when undo is
// given (the insert rolls back with the consuming TE). Unlike
// insertBatch it bypasses the executor: EE triggers fired when the
// producing TE appended the rows, and the move is pure relocation, not
// a second arrival.
func (p *partition) placeMovedBatch(b stream.Batch, undo storage.Undo) error {
	tbl, err := p.cat.Get(b.Stream)
	if err != nil {
		return err
	}
	for _, row := range b.Rows {
		if _, err := tbl.Insert(row, b.ID, undo); err != nil {
			return err
		}
	}
	return nil
}

// retainRelocatedBatch runs after an aborted TE rolled back: if the
// task carried a relocated batch, the rollback removed the rows from
// the stream table, which would lose the batch — they exist nowhere
// else. Re-placing them outside any transaction mirrors the
// local-dispatch abort semantics: the failed batch stays in the stream
// table (inspectable, never silently dropped) and later consumers of a
// multi-consumer batch still see it; the aborted consumer never
// releases its refcount share, so the batch is retained rather than
// GC'd.
func (p *partition) retainRelocatedBatch(t *task) {
	if !t.carriesRelocated() {
		return
	}
	if err := p.placeMovedBatch(t.in, nil); err != nil {
		p.noteTriggerErr(fmt.Errorf("pe: retain relocated batch %d on %s: %w", t.in.ID, t.in.Stream, err))
		return
	}
	if t.gcRefs > 1 {
		p.pendingGC[keyOf(t.in)] = t.gcRefs
	}
}

// afterCommit dispatches PE triggers for the TE's stream appends and
// garbage-collects the consumed input batch.
func (p *partition) afterCommit(t *task, appends []ee.StreamAppend) {
	if p.eng.peTriggersOn.Load() {
		p.dispatchTriggers(t, appends)
	} else if p.eng.stash != nil {
		// Strong replay: produced batches leave the table for the
		// replay stash instead of firing triggers, so later replayed
		// TEs never see a neighbor batch in their input stream.
		p.stashAppends(t, appends)
	}
	if t.in.Stream == "" {
		return
	}
	key := keyOf(t.in)
	if len(t.in.Rows) > 0 {
		if t.gcRefs > 1 {
			// First consumer of a relocated multi-consumer batch: the
			// refcount follows the batch to this partition; the
			// remaining consumers decrement it below.
			p.pendingGC[key] = t.gcRefs - 1
			return
		}
		// Border TE or sole consumer of a relocated batch: GC now.
		p.gcBatch(key)
		return
	}
	if n, ok := p.pendingGC[key]; ok {
		if n <= 1 {
			delete(p.pendingGC, key)
			p.gcBatch(key)
		} else {
			p.pendingGC[key] = n - 1
		}
	} else {
		// Recovery-fired TE with no registered refcount: single
		// consumer.
		p.gcBatch(key)
	}
}

func (p *partition) gcBatch(k batchKey) {
	if tbl, ok := p.cat.Lookup(k.stream); ok {
		storage.DeleteBatch(tbl, k.id, nil)
	}
}

// forEachProduced calls fn once per batch the TE's appends produced
// that has consumers, in append order, with the batch's rows left in
// the table: the TE's own input is being consumed, not produced, and a
// batch appended by several statements is visited once.
func (p *partition) forEachProduced(t *task, appends []ee.StreamAppend, fn func(b stream.Batch, consumers []string)) {
	seen := make(map[batchKey]bool)
	for _, ap := range appends {
		k := batchKey{stream: ap.Table, id: ap.BatchID}
		if ap.Table == t.in.Stream || seen[k] {
			continue
		}
		seen[k] = true
		if consumers := p.eng.consumers[ap.Table]; len(consumers) > 0 {
			fn(stream.Batch{Stream: ap.Table, ID: ap.BatchID}, consumers)
		}
	}
}

// dispatchTriggers turns the TE's stream appends into TEs for each
// downstream consumer, preserving append order (which is consistent
// with the workflow's topological order because appends happen in SP
// execution order).
//
// When the engine has a PartitionBy routing function and more than one
// partition, each appended batch is routed like an ingested one: a
// batch bound to this partition short-circuits to the front of the
// local queue (§3.2.4); a batch bound elsewhere is relocated through
// the partition transport — its rows are extracted from the local
// stream table and travel with the consumer tasks to the destination
// partition's FIFO (or across the wire to the owning node), together
// with the GC refcount. Because this partition dispatches serially in
// commit order and the transport appends each batch's tasks
// atomically, batches of one stream arrive at any given partition in
// increasing-ID order — the per-(stream, partition) ordering guarantee
// the paper's §2.2 constraints reduce to under data partitioning
// (§4.7).
func (p *partition) dispatchTriggers(t *task, appends []ee.StreamAppend) {
	var local []*task
	var remote []relocated // batches bound elsewhere, in append order
	route := p.eng.opts.PartitionBy
	nparts := p.eng.nglobal
	p.forEachProduced(t, appends, func(b stream.Batch, consumers []string) {
		target := p.id
		if route != nil && nparts > 1 {
			if tbl, ok := p.cat.Lookup(b.Stream); ok {
				b.Rows = storage.BatchRows(tbl, b.ID)
			}
			if len(b.Rows) > 0 {
				target = wrapPartition(route(b.Stream, b.Rows), nparts)
			}
		}
		if target != p.id {
			remote = append(remote, relocated{Batch: b, target: target})
			return
		}
		// Local consumers find the rows in the table; the refcount
		// waits in pendingGC.
		p.pendingGC[keyOf(b)] = len(consumers)
		local = appendConsumerTasks(local, consumers, stream.Batch{Stream: b.Stream, ID: b.ID})
	})
	p.sched.PushFrontBatch(local)
	if len(remote) > 0 && p.release != nil {
		// A relocated batch leaves the partition: its consumer's log is
		// another file, so the producer's record must be durable first.
		// Same-partition consumers (local, above) need no wait — they
		// sit behind the producer in the same log.
		if err := p.log.WaitDurable(p.lsn); err != nil {
			for _, r := range remote {
				p.noteTriggerErr(fmt.Errorf("pe: batch %d on %s not dispatched to partition %d: %w",
					r.ID, r.Stream, r.target, err))
			}
			return
		}
	}
	for _, r := range remote {
		// Relocate through the transport: in-process delivery moves the
		// rows into the consumer tasks (retained=false — drop the local
		// copy); a cross-node delivery keeps the local copy retained
		// until the receiving node acknowledges the batch's commit
		// (handoffAcked deletes it then).
		retained, err := p.eng.transport.Deliver(p.id, r.target, r.Batch)
		if err != nil {
			// Destination closed mid-shutdown (or peer set torn down):
			// keep the committed batch in the local stream table rather
			// than dropping it, and surface the miss like any other
			// trigger failure.
			p.noteTriggerErr(fmt.Errorf("pe: batch %d on %s not dispatched to partition %d: %w",
				r.ID, r.Stream, r.target, err))
			continue
		}
		if !retained {
			p.gcBatch(keyOf(r.Batch))
		}
	}
}

// relocated is one committed batch bound to another partition, queued
// for transport delivery after the local front-push.
type relocated struct {
	stream.Batch
	target int
}

// executeNested runs a nested transaction (§2.3): children execute in
// order as one isolation unit; all commit or all roll back. Because the
// whole group occupies one scheduler slot, nothing can interleave.
func (p *partition) executeNested(t *task) {
	type childRun struct {
		tx   *txn.Txn
		ectx *ee.ExecCtx
	}
	var runs []childRun
	var lastResult *Result
	// Every child's context goes back to the pool once the group has
	// committed or rolled back: recycling resets it, which releases the
	// declared-statement scratch its Exec runs claimed.
	var ectxs []*ee.ExecCtx
	defer func() {
		for _, ectx := range ectxs {
			p.recycleECtx(ectx)
		}
	}()
	rollbackAll := func() {
		for i := len(runs) - 1; i >= 0; i-- {
			_ = runs[i].tx.Rollback()
		}
	}
	for _, child := range t.nested {
		sp, ok := p.eng.procs[child.sp]
		if !ok {
			rollbackAll()
			p.replyTo(t, nil, fmt.Errorf("pe: unknown stored procedure %q", child.sp))
			return
		}
		p.nextTxn++
		tx := txn.New(p.nextTxn)
		ectx := p.getECtx()
		ectx.Reset(child.sp, t.in.ID, tx, nil)
		ectxs = append(ectxs, ectx)
		pc := &ProcCtx{part: p, ectx: ectx, params: child.params, in: stream.Batch{ID: t.in.ID}, stmts: p.stmts[child.sp]}
		if err := sp.Func(pc); err != nil {
			_ = tx.Rollback()
			rollbackAll()
			p.aborted++
			p.replyTo(t, nil, fmt.Errorf("pe: nested child %s: %w", child.sp, err))
			return
		}
		runs = append(runs, childRun{tx: tx, ectx: ectx})
		if pc.result != nil {
			lastResult = pc.result
		}
	}
	// All children succeeded: log then commit each in order.
	if p.logged(t) {
		for _, child := range t.nested {
			rec := &wal.Record{Kind: t.kind, Partition: p.id, SP: child.sp, Params: child.params}
			if err := p.appendLog(rec); err != nil {
				rollbackAll()
				p.replyTo(t, nil, fmt.Errorf("pe: command log: %w", err))
				return
			}
		}
	}
	var appends []ee.StreamAppend
	var commitErr error
	for _, r := range runs {
		if err := r.tx.Commit(); err != nil {
			// A child that fails to commit is not executed; the first
			// failure is reported to the caller. Children that already
			// committed stay committed (their effects are durable), so
			// their stream appends still dispatch below.
			if commitErr == nil {
				commitErr = fmt.Errorf("pe: nested child %s commit: %w", r.ectx.SP, err)
			}
			p.aborted++
			continue
		}
		p.executed++
		p.execBySP[r.ectx.SP]++
		appends = append(appends, r.ectx.Appends...)
	}
	p.afterCommit(t, appends)
	if commitErr != nil {
		p.replyTo(t, nil, commitErr)
		return
	}
	if lastResult == nil {
		lastResult = &Result{}
	}
	p.replyTo(t, lastResult, nil)
}
