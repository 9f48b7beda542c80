// Package pe is the partition engine: it owns partitions (one serial
// execution goroutine each, §3.1), the stored-procedure registry, the
// streaming scheduler with its PE-trigger fast path (§3.2.3–3.2.4),
// command logging per recovery mode, checkpointing, and crash recovery.
package pe

import (
	"sync"

	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/wal"
)

// task is one unit of work queued on a partition.
type task struct {
	// sp is the stored procedure to execute; empty for control
	// tasks.
	sp     string
	params types.Row
	// in is the atomic batch this TE consumes: in.Stream is its input
	// stream table, which the engine garbage-collects after commit once
	// every consumer ran (§3.2.3). in.Rows is set when the TE must
	// place the tuples into its input stream itself: border TEs (the
	// ingest path, where arrival and processing commit atomically,
	// §2.1), hand-off TEs, and interior TEs whose batch was routed to
	// this partition by cross-partition dispatch (the rows move with
	// the task).
	in stream.Batch
	// kind classifies the TE for command logging.
	kind wal.RecordKind
	// gcRefs, on an interior task that carries a relocated batch
	// (cross-partition dispatch), is the total number of consumers
	// sharing the batch; the carrying task registers the remaining
	// refcount on the destination partition after it commits.
	gcRefs int
	// nested, when non-nil, makes this task a nested transaction:
	// the children run as one isolation unit (§2.3).
	nested []nestedChild
	// control, when non-nil, runs inside the partition goroutine
	// with exclusive access to its catalog (checkpoints, recovery
	// helpers, barriers).
	control func(p *partition) error
	// reply, when non-nil, receives the outcome.
	reply chan callResult
	// noLog suppresses command logging for this TE (recovery
	// replay).
	noLog bool
}

// carriesRelocated reports whether t is an interior TE carrying a
// relocated batch's rows: until its TE places them, the rows exist
// only in the task.
func (t *task) carriesRelocated() bool {
	return t.kind == wal.KindInterior && len(t.in.Rows) > 0 && t.in.Stream != ""
}

type nestedChild struct {
	sp     string
	params types.Row
}

type callResult struct {
	res *Result
	err error
}

// Result is the client-visible outcome of a transaction execution.
type Result struct {
	// Rows and Columns carry the result set the procedure chose to
	// return (see ProcCtx.SetResult).
	Columns []string
	Rows    []types.Row
	// LastInsertBatch reports the batch ID processed, for streaming
	// TEs.
	LastInsertBatch int64
}

// deque is a ring-buffer double-ended task queue: push and pop at
// either end are amortized O(1), unlike the slice pair it replaced,
// where every front push re-allocated and copied the whole front queue
// — O(depth) per committing TE under load. Capacity is kept a power of
// two so index wrap is a mask. Not safe for concurrent use; the
// scheduler serializes access under its mutex.
type deque struct {
	buf  []*task
	head int // index of the first element
	n    int
}

func (d *deque) len() int { return d.n }

// grow doubles capacity until need more elements fit, re-linearizing
// the ring at index 0.
func (d *deque) grow(need int) {
	if d.n+need <= len(d.buf) {
		return
	}
	capNew := len(d.buf)
	if capNew == 0 {
		capNew = 8
	}
	for capNew < d.n+need {
		capNew *= 2
	}
	buf := make([]*task, capNew)
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf = buf
	d.head = 0
}

//sstore:nomalloc
func (d *deque) pushBack(t *task) {
	//lint:allow hotalloc -- grow is the amortized slow path; steady-state pushes stay inside the ring
	d.grow(1)
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = t
	d.n++
}

//sstore:nomalloc
func (d *deque) pushFront(t *task) {
	//lint:allow hotalloc -- grow is the amortized slow path; steady-state pushes stay inside the ring
	d.grow(1)
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = t
	d.n++
}

//sstore:nomalloc
func (d *deque) popFront() *task {
	t := d.buf[d.head]
	d.buf[d.head] = nil // release for GC
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return t
}

// peekFront returns the first element without popping; the caller must
// have checked len() > 0.
func (d *deque) peekFront() *task { return d.buf[d.head] }

func (d *deque) forEach(fn func(*task)) {
	for i := 0; i < d.n; i++ {
		fn(d.buf[(d.head+i)&(len(d.buf)-1)])
	}
}

// scheduler is a partition's transaction request queue: FIFO for
// client-submitted work, with a front-of-queue fast path for
// PE-triggered TEs so a workflow's TEs for one batch execute without
// interleaving (§3.2.4). It is the only concurrency boundary between
// clients and the partition goroutine.
type scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	front  deque // triggered TEs, consumed before back
	back   deque // FIFO client requests
	closed bool
	// bound, when positive, caps the queue depth seen by border
	// submissions (PushBackBounded): client Calls and ingested batches
	// are rejected with an overload signal once front+back reaches it.
	// Interior pushes (PushBack, PushBackBatch, PushFrontBatch) ignore
	// the bound — a committing TE must always be able to hand work to
	// the next partition, or cross-partition dispatch could deadlock.
	bound int
	// track, when non-nil, is the engine-wide outstanding-work counter
	// backing the event-driven Drain: every successful enqueue
	// increments it; the partition goroutine releases it after the
	// task finishes executing.
	track *quiesce
}

func newScheduler() *scheduler {
	s := &scheduler{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// PushBack appends a client request (FIFO order), ignoring the depth
// bound; border paths use PushBackBounded instead.
func (s *scheduler) PushBack(t *task) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.back.pushBack(t)
	if s.track != nil {
		s.track.add(1)
	}
	s.cond.Signal()
	return true
}

// PushBackBounded appends a border submission (client Call or ingested
// batch) unless the queue is full. closed=false means the scheduler is
// shut down; otherwise full reports whether the depth bound rejected
// the task, with depth the queue depth observed under the lock (the
// basis for the retry-after hint).
func (s *scheduler) PushBackBounded(t *task) (ok, full bool, depth int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, false, 0
	}
	depth = s.front.len() + s.back.len()
	if s.bound > 0 && depth >= s.bound {
		return false, true, depth
	}
	s.back.pushBack(t)
	if s.track != nil {
		s.track.add(1)
	}
	s.cond.Signal()
	return true, false, depth
}

// PushBackBatch appends several tasks atomically in the given order.
// The cross-partition dispatch path uses this: a committing TE hands a
// routed batch's consumer TEs to another partition's queue as one unit,
// so batches of a stream arrive at each partition in the producer's
// commit order (the per-(stream, partition) ordering guarantee) and no
// foreign task can land between the consumers of one batch. The depth
// bound is deliberately not applied: rejecting an already-committed
// batch would lose it.
func (s *scheduler) PushBackBatch(ts []*task) bool {
	if len(ts) == 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.back.grow(len(ts))
	for _, t := range ts {
		s.back.pushBack(t)
	}
	if s.track != nil {
		s.track.add(len(ts))
	}
	s.cond.Signal()
	return true
}

// PushFrontBatch prepends triggered TEs, preserving the given order
// ahead of everything already queued. The partition goroutine calls
// this when a committing TE fires PE triggers, so the downstream TEs
// run immediately — the "short-circuit of H-Store's FIFO scheduler"
// (§3.2.4). Never bounded: the TEs continue an admitted batch's
// workflow.
func (s *scheduler) PushFrontBatch(ts []*task) {
	if len(ts) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.front.grow(len(ts))
	for i := len(ts) - 1; i >= 0; i-- {
		s.front.pushFront(ts[i])
	}
	if s.track != nil {
		s.track.add(len(ts))
	}
	s.cond.Signal()
}

// Pop blocks for the next task, front queue first. ok=false means the
// scheduler is closed and drained.
func (s *scheduler) Pop() (*task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.front.len() == 0 && s.back.len() == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.front.len() > 0 {
		return s.front.popFront(), true
	}
	if s.back.len() > 0 {
		return s.back.popFront(), true
	}
	return nil, false
}

// PopRun blocks like Pop for the first task, then — when that task is
// eligible — drains further immediately-available eligible tasks into
// buf (front queue first, the same order Pop would yield), stopping at
// the first ineligible task, which stays queued. It never waits for
// more work once it holds one task. Returns the number of tasks
// popped; wave=false means the single popped task was ineligible and
// must run serially. ok=false means closed and drained.
//
// The eligible callback runs under the scheduler lock and must not
// call back into the scheduler.
func (s *scheduler) PopRun(buf []*task, eligible func(*task) bool) (n int, wave, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.front.len() == 0 && s.back.len() == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.front.len() == 0 && s.back.len() == 0 {
		return 0, false, false
	}
	pop := func() *task {
		if s.front.len() > 0 {
			return s.front.popFront()
		}
		return s.back.popFront()
	}
	buf[0] = pop()
	n = 1
	if !eligible(buf[0]) {
		return n, false, true
	}
	for n < len(buf) && s.front.len()+s.back.len() > 0 {
		var next *task
		if s.front.len() > 0 {
			next = s.front.peekFront()
		} else {
			next = s.back.peekFront()
		}
		if !eligible(next) {
			break
		}
		buf[n] = pop()
		n++
	}
	return n, true, true
}

// ForEachQueued visits every queued task (front queue first) under
// the scheduler lock; the checkpoint barrier uses it to ground
// batches traveling inside queued carrying tasks. fn must not call
// back into the scheduler.
func (s *scheduler) ForEachQueued(fn func(*task)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.front.forEach(fn)
	s.back.forEach(fn)
}

// Len returns the number of queued tasks.
func (s *scheduler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.front.len() + s.back.len()
}

// Close wakes the partition loop for shutdown; queued tasks still
// drain.
func (s *scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
}
