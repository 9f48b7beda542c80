// Package storage implements the in-memory table heap shared by the
// OLTP and streaming halves of the engine. Following the paper (§3.2.1,
// §3.2.2), streams and windows are ordinary tables whose rows carry
// extra metadata: a monotonically increasing tuple ID capturing arrival
// order, a batch ID grouping tuples into atomic batches, and a staging
// flag used by native sliding windows.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sstore/internal/index"
	"sstore/internal/types"
)

// Kind distinguishes the three state categories of the paper's model
// (§2): public shared tables, streams, and windows.
type Kind uint8

const (
	// KindTable is ordinary, publicly shared OLTP state.
	KindTable Kind = iota
	// KindStream is a time-varying table holding in-flight atomic
	// batches of a stream.
	KindStream
	// KindWindow is a sliding-window table with staging semantics,
	// scoped to its owning stored procedure.
	KindWindow
)

// String returns the DDL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindTable:
		return "TABLE"
	case KindStream:
		return "STREAM"
	case KindWindow:
		return "WINDOW"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// TupleMeta is the per-row metadata tracked alongside user data.
type TupleMeta struct {
	// TID is the table-local tuple ID; assignment order is arrival
	// order, which is how an unordered table represents a stream.
	TID uint64
	// BatchID is the atomic batch the tuple belongs to (streams), or
	// zero for plain tables.
	BatchID int64
	// Staged marks window tuples that have arrived but are not yet
	// visible to queries (§3.2.2).
	Staged bool
}

// Undo receives physical undo records for every mutation so the
// transaction layer can roll back aborted work. A nil Undo disables
// recording.
type Undo interface {
	// RecordInsert is called after a row is inserted.
	RecordInsert(t *Table, tid uint64)
	// RecordDelete is called after a row is deleted, with its former
	// contents.
	RecordDelete(t *Table, meta TupleMeta, row types.Row)
	// RecordStage is called after a tuple's staging flag changes.
	RecordStage(t *Table, tid uint64, prev bool)
}

// storedRow is the live (newest) version of one tuple. installedAt is
// the number of the task that installed this version; a pinned reader
// at commit boundary B sees it iff installedAt ≤ B, and otherwise
// walks the table's version chain for the tuple (see rowVer in
// views.go).
type storedRow struct {
	meta        TupleMeta
	data        types.Row
	installedAt uint64
}

// Table is an in-memory heap of rows plus secondary indexes. All access
// is single-threaded by construction: a table belongs to exactly one
// partition and partitions execute transactions serially (§3.1), so
// Table itself takes no locks on the write path unless a reader is
// pinned (see beginMutate).
type Table struct {
	name   string
	kind   Kind
	schema *types.Schema
	// rows is the in-memory heap (heap.go); archive tables keep their
	// locators in arch instead and leave rows empty.
	rows    slots[storedRow]
	indexes []index.Index
	nextTID uint64
	// gcVictims is DeleteBatch's scratch list of a batch's TIDs.
	gcVictims []uint64

	window *WindowState // non-nil iff kind == KindWindow

	// OwnerSP restricts access to window tables: only transaction
	// executions of this stored procedure may touch the table
	// (§3.2.2). Empty means unrestricted.
	OwnerSP string

	// views, when non-nil, is the partition's epoch registry (snapshot
	// read path); mutations preserve superseded row versions for pinned
	// readers instead of mutating state they can still see.
	views *Views
	// liveTask is the number of the task that last mutated this table:
	// the live heap equals the boundary-E state for every E ≥ liveTask.
	liveTask atomic.Uint64
	// latch serializes off-loop readers against mutations. Writers take
	// it per outermost mutation, and only while a reader is pinned;
	// readers hold RLock for the duration of one statement.
	latch sync.RWMutex
	// releaseRead is the read-latch release handed to resolved readers;
	// built once so the read path does not allocate a closure per
	// resolve.
	releaseRead func()
	// mutDepth counts nested mutations (a window slide inside an
	// insert, a re-evaluation delete inside an update) so only the
	// outermost mutation takes the latch.
	mutDepth int
	// latched records whether the current mutation bracket holds the
	// write latch.
	latched bool

	// olds holds per-tuple version chains: superseded row versions kept
	// alive for pinned readers, newest first. Nil or empty whenever no
	// reader has pinned across a mutation. Guarded by latch while
	// readers exist.
	olds map[uint64]*rowVer

	// arch, when non-nil, is the disk-backed heap replacing rows: the
	// table is an archive table and every heap access routes through
	// liveRow/putRow/removeRow to it.
	arch *archHeap

	// src/asOf turn a Table value into a read-only versioned shim:
	// when src is non-nil, Get/Scan resolve src's row versions at
	// boundary asOf instead of reading own state. Shims carry no
	// indexes (index probes fall back to filtered scans).
	src  *Table
	asOf uint64
}

// beginMutate opens a mutation bracket. The fast path — no registry, or
// no reader pinned — is two atomic loads; with a pinned reader the
// outermost bracket takes the write latch so off-loop readers never
// observe a half-applied mutation or a version chain mid-splice.
//
//sstore:nomalloc
func (t *Table) beginMutate() {
	v := t.views
	if v == nil {
		return
	}
	if t.mutDepth == 0 && v.pinCount.Load() > 0 {
		t.latch.Lock()
		t.latched = true
	}
	t.mutDepth++
	if task := v.curTask.Load(); t.liveTask.Load() != task {
		t.liveTask.Store(task)
	}
}

// endMutate closes a mutation bracket, releasing the write latch at the
// outermost level if beginMutate took it.
//
//sstore:nomalloc
func (t *Table) endMutate() {
	if t.views == nil {
		return
	}
	t.mutDepth--
	if t.mutDepth == 0 && t.latched {
		t.latched = false
		t.latch.Unlock()
	}
}

// preserveVersion pushes the pre-image of a row about to be mutated
// onto its version chain when a pinned reader can still see it. The
// version covers commit boundaries [installedAt, curTask-1] and is
// queued on the registry's retire ring for reclamation once the oldest
// pin advances past it. Callers hold the mutation bracket.
func (t *Table) preserveVersion(tid uint64, r storedRow) {
	v := t.views
	if v == nil || v.pinCount.Load() == 0 || v.maxPinned.Load() < r.installedAt {
		return
	}
	task := v.curTask.Load()
	if task == 0 {
		// No task has ever run: there is no commit boundary a version
		// could cover.
		return
	}
	n := v.getVer()
	n.meta, n.data = r.meta, r.data
	n.from, n.to = r.installedAt, task-1
	if t.olds == nil {
		t.olds = make(map[uint64]*rowVer)
	}
	n.older = t.olds[tid]
	t.olds[tid] = n
	v.retireVer(t, tid, n)
}

// versionAt resolves the tuple's state at commit boundary b: the live
// row when it was installed at or before b, else the newest chained
// version covering b, else not-present. Chains are newest-first with
// strictly decreasing ranges, so the walk stops at the first node whose
// range has fallen below b.
//
//sstore:nomalloc
func (t *Table) versionAt(tid, b uint64) (TupleMeta, types.Row, bool) {
	if r, ok := t.liveRow(tid); ok && r.installedAt <= b {
		return r.meta, r.data, true
	}
	for n := t.olds[tid]; n != nil; n = n.older {
		if b > n.to {
			break
		}
		if n.from <= b {
			return n.meta, n.data, true
		}
	}
	var none TupleMeta
	return none, nil, false
}

// stampInstalled returns the task number to stamp on a freshly
// installed row version.
func (t *Table) stampInstalled() uint64 {
	if t.views == nil {
		return 0
	}
	return t.views.curTask.Load()
}

// liveRow returns the live (newest) image of a tuple — the heap seam's
// read half. The in-memory heap is a slot lookup; the archive heap pins
// the row's page in the buffer pool and decodes a copy.
//
//sstore:nomalloc
func (t *Table) liveRow(tid uint64) (storedRow, bool) {
	if t.arch != nil {
		//lint:allow hotalloc -- the archive branch decodes a row copy off a pinned page; the in-memory hot path below stays allocation-free
		return t.arch.get(tid)
	}
	return t.rows.get(tid)
}

// putRow installs r as the tuple's live image — the heap seam's write
// half. The in-memory heap cannot fail; the archive heap can surface
// page-file I/O errors, which callers unwind like index failures.
func (t *Table) putRow(tid uint64, r storedRow) error {
	if t.arch != nil {
		return t.arch.put(tid, r)
	}
	t.rows.put(tid, r)
	return nil
}

// removeRow drops the tuple's live image, leaving its TID listed until
// compaction. Absent tuples are a no-op.
func (t *Table) removeRow(tid uint64) error {
	if t.arch != nil {
		return t.arch.remove(tid)
	}
	t.rows.remove(tid)
	return nil
}

// heap returns the table's slot list: the rows of an in-memory table,
// the locators of an archive table.
func (t *Table) heap() heapList {
	if t.arch != nil {
		return &t.arch.loc
	}
	return &t.rows
}

// SortRestored sorts the rows RestoreRow appended out of TID order into
// place (heap.go); a rollback calls it after replaying its undo log.
// Delete and setStaged, interleaved with restores, sort before lookups.
func (t *Table) SortRestored() {
	t.beginMutate()
	defer t.endMutate()
	t.heap().sortRestored()
}

// NewTable creates an empty table of the given kind.
func NewTable(name string, kind Kind, schema *types.Schema) *Table {
	t := &Table{name: name, kind: kind, schema: schema}
	t.releaseRead = func() { t.latch.RUnlock() }
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Kind returns the table kind.
func (t *Table) Kind() Kind { return t.kind }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// Window returns the sliding-window state for window tables, or nil.
func (t *Table) Window() *WindowState {
	if t.src != nil {
		return t.src.window
	}
	return t.window
}

// Len returns the number of live rows, including staged window rows.
func (t *Table) Len() int { return t.count(true) }

// ActiveLen returns the number of rows visible to queries (live rows
// minus staged window rows).
func (t *Table) ActiveLen() int { return t.count(false) }

func (t *Table) count(staged bool) int {
	n := 0
	if t.src != nil {
		t.scan(func(TupleMeta, types.Row) bool { n++; return true }, staged)
		return n
	}
	if n = t.heap().live(); t.window != nil && !staged {
		n -= t.window.staged.Len()
	}
	return n
}

// AddIndex attaches an index and backfills it from existing rows. Row
// data is unchanged, so pinned readers on the live heap keep reading
// it; the mutation bracket only fences the index-list append against a
// reader mid-probe.
func (t *Table) AddIndex(idx index.Index) error {
	t.beginMutate()
	defer t.endMutate()
	for _, have := range t.indexes {
		if have.Name() == idx.Name() {
			return fmt.Errorf("storage: table %s already has index %s", t.name, idx.Name())
		}
	}
	if err := t.backfill(idx); err != nil {
		return err
	}
	t.indexes = append(t.indexes, idx)
	return nil
}

// backfill inserts every row into idx, in TID order so a replayed run
// builds the same hash-bucket layouts as the live run.
func (t *Table) backfill(idx index.Index) error {
	var err error
	t.ScanAll(func(meta TupleMeta, row types.Row) bool {
		err = idx.Insert(t.extractKey(idx, row), meta.TID)
		return err == nil
	})
	if err != nil {
		return fmt.Errorf("storage: backfilling index %s of %s: %w", idx.Name(), t.name, err)
	}
	return nil
}

// Indexes returns the attached indexes. Versioned shims carry none:
// the live indexes reflect the newest versions, so probes against an
// older boundary fall back to filtered scans.
func (t *Table) Indexes() []index.Index { return t.indexes }

func (t *Table) extractKey(idx index.Index, row types.Row) index.Key {
	cols := idx.Columns()
	key := make(index.Key, len(cols))
	for i, c := range cols {
		key[i] = row[c]
	}
	return key
}

// indexAdd enters row under tid in every index, taking back the entries
// already made if one index refuses it.
func (t *Table) indexAdd(row types.Row, tid uint64) error {
	for i, idx := range t.indexes {
		if err := idx.Insert(t.extractKey(idx, row), tid); err != nil {
			t.indexDrop(row, tid, t.indexes[:i])
			return err
		}
	}
	return nil
}

// indexDrop removes row's entries under tid from indexes.
func (t *Table) indexDrop(row types.Row, tid uint64, indexes []index.Index) {
	for _, idx := range indexes {
		idx.Delete(t.extractKey(idx, row), tid)
	}
}

// Insert validates row against the schema and appends it. For window
// tables the row enters staged and the window may slide; the returned
// InsertResult reports what happened so the caller can fire triggers.
func (t *Table) Insert(row types.Row, batchID int64, undo Undo) (InsertResult, error) {
	t.beginMutate()
	defer t.endMutate()
	row, err := t.schema.Validate(row)
	if err != nil {
		return InsertResult{}, fmt.Errorf("storage: insert into %s: %w", t.name, err)
	}
	staged := t.window != nil
	tid, err := t.insertRaw(TupleMeta{BatchID: batchID, Staged: staged}, row, undo)
	if err != nil {
		return InsertResult{}, err
	}
	res := InsertResult{TID: tid}
	if t.window != nil {
		t.window.staged.PushBack(tid)
		res.Slid = t.maybeSlide(row, undo)
	}
	return res, nil
}

// InsertResult reports the outcome of an insert for trigger dispatch.
type InsertResult struct {
	// TID is the new tuple's ID.
	TID uint64
	// Slid reports whether the insert caused a window slide, which is
	// the firing condition for EE triggers on windows.
	Slid bool
}

// insertRaw appends a row with explicit metadata, assigning a TID. A
// fresh insert has no pre-image: readers at older boundaries simply do
// not see the tuple (versionAt's not-present default).
func (t *Table) insertRaw(meta TupleMeta, row types.Row, undo Undo) (uint64, error) {
	t.nextTID++
	meta.TID = t.nextTID
	if err := t.install(meta, row); err != nil {
		t.nextTID--
		return 0, fmt.Errorf("storage: insert into %s: %w", t.name, err)
	}
	if undo != nil {
		undo.RecordInsert(t, meta.TID)
	}
	return meta.TID, nil
}

// install enters a new tuple in the indexes and the heap, leaving
// neither changed if either refuses it.
func (t *Table) install(meta TupleMeta, row types.Row) error {
	if err := t.indexAdd(row, meta.TID); err != nil {
		return err
	}
	if err := t.putRow(meta.TID, storedRow{meta: meta, data: row, installedAt: t.stampInstalled()}); err != nil {
		t.indexDrop(row, meta.TID, t.indexes)
		return err
	}
	return nil
}

// RestoreRow re-inserts a previously deleted row with its original
// metadata; used by transaction rollback and snapshot load. The row
// goes back into its slot when the slot is still listed, and is
// appended out of order otherwise (see SortRestored). The TID counter
// is bumped past the restored TID.
func (t *Table) RestoreRow(meta TupleMeta, row types.Row) error {
	t.beginMutate()
	defer t.endMutate()
	if _, ok := t.liveRow(meta.TID); ok {
		return fmt.Errorf("storage: restore of live tid %d in %s", meta.TID, t.name)
	}
	if err := t.install(meta, row); err != nil {
		return fmt.Errorf("storage: restore into %s: %w", t.name, err)
	}
	if meta.TID > t.nextTID {
		t.nextTID = meta.TID
	}
	if t.window != nil {
		if meta.Staged {
			t.window.staged.PushSorted(meta.TID)
		} else {
			t.window.active.PushSorted(meta.TID)
			t.windowAggAdd(row)
			if t.window.Spec.TimeBased {
				t.window.noteActivation(timeValue(row[t.window.Spec.TimeColumn]))
			}
		}
	}
	return nil
}

// Delete removes the row with the given TID, returning its former
// contents. If a pinned reader can still see the row, its last version
// is preserved on the chain; readers at later boundaries see the
// absence (no chain node covers them).
func (t *Table) Delete(tid uint64, undo Undo) (types.Row, error) {
	t.beginMutate()
	defer t.endMutate()
	t.heap().sortRestored()
	r, ok := t.liveRow(tid)
	if !ok {
		return nil, fmt.Errorf("storage: delete of missing tid %d in %s", tid, t.name)
	}
	t.preserveVersion(tid, r)
	t.indexDrop(r.data, tid, t.indexes)
	if err := t.removeRow(tid); err != nil {
		_ = t.indexAdd(r.data, tid)
		return nil, fmt.Errorf("storage: delete from %s: %w", t.name, err)
	}
	t.maybeCompact()
	if t.window != nil {
		if r.meta.Staged {
			t.window.staged.Remove(tid)
		} else {
			t.window.active.Remove(tid)
			t.windowAggRemove(r.data)
		}
	}
	if undo != nil {
		undo.RecordDelete(t, r.meta, r.data)
	}
	return r.data, nil
}

// Update replaces the row with the given TID, preserving its metadata.
// It is implemented as delete+insert on the indexes but keeps the TID
// stable.
func (t *Table) Update(tid uint64, newRow types.Row, undo Undo) error {
	t.beginMutate()
	defer t.endMutate()
	r, ok := t.liveRow(tid)
	if !ok {
		return fmt.Errorf("storage: update of missing tid %d in %s", tid, t.name)
	}
	newRow, err := t.schema.Validate(newRow)
	if err != nil {
		return fmt.Errorf("storage: update %s: %w", t.name, err)
	}
	t.indexDrop(r.data, tid, t.indexes)
	err = t.indexAdd(newRow, tid)
	if err == nil {
		t.preserveVersion(tid, r)
		if err = t.putRow(tid, storedRow{meta: r.meta, data: newRow, installedAt: t.stampInstalled()}); err != nil {
			t.indexDrop(newRow, tid, t.indexes)
		}
	}
	if err != nil {
		// Roll the index changes back to the old row.
		_ = t.indexAdd(r.data, tid)
		return fmt.Errorf("storage: update %s: %w", t.name, err)
	}
	if undo != nil {
		undo.RecordDelete(t, r.meta, r.data)
		undo.RecordInsert(t, tid)
	}
	if t.window != nil && !r.meta.Staged {
		t.windowAggUpdate(r.data, newRow)
	}
	if w := t.window; w != nil && w.Spec.TimeBased {
		col := w.Spec.TimeColumn
		oldTS, newTS := timeValue(r.data[col]), timeValue(newRow[col])
		if newTS != oldTS {
			// A rewritten time column can put this tuple anywhere
			// relative to its deque position: prefix pops are off
			// until the window drains.
			w.timeDisorder = true
			if !r.meta.Staged {
				w.noteActivation(newTS)
				// Re-evaluate the tuple against the window bounds: a
				// time now below start is expired, one at or past
				// start+Size goes back to staging until the window
				// reaches it — in neither case may it stay visible.
				if w.started && newTS < w.start {
					_, _ = t.Delete(tid, undo)
				} else if w.started && newTS >= w.start+w.Spec.Size {
					t.setStaged(tid, true, undo)
				}
			}
		}
	}
	return nil
}

// Get returns the row and metadata for a TID. On a versioned shim it
// resolves the version visible at the shim's boundary.
//
//sstore:nomalloc
func (t *Table) Get(tid uint64) (TupleMeta, types.Row, bool) {
	if t.src != nil {
		return t.src.versionAt(tid, t.asOf)
	}
	r, ok := t.liveRow(tid) // the zero row when absent
	return r.meta, r.data, ok
}

// Scan calls fn for every visible (non-staged) row in arrival order.
// fn returning false stops the scan. Neither the row nor the table may
// be mutated from inside fn. On a versioned shim each tuple resolves
// through its version chain.
func (t *Table) Scan(fn func(meta TupleMeta, row types.Row) bool) {
	t.scan(fn, false)
}

// ScanAll is Scan including staged rows; used by window management and
// snapshotting.
func (t *Table) ScanAll(fn func(meta TupleMeta, row types.Row) bool) {
	t.scan(fn, true)
}

func (t *Table) scan(fn func(meta TupleMeta, row types.Row) bool, staged bool) {
	if t.src == nil && t.arch == nil {
		rows := t.rows.s
		for i := range rows {
			if s := &rows[i]; s.live && (staged || !s.val.meta.Staged) && !fn(s.val.meta, s.val.data) {
				return
			}
		}
		return
	}
	// A versioned shim resolves each listed tuple at its boundary; an
	// archive table's live rows are those at every boundary.
	src, asOf := t, ^uint64(0)
	if t.src != nil {
		src, asOf = t.src, t.asOf
	}
	h := src.heap()
	for i, n := 0, h.size(); i < n; i++ {
		meta, row, ok := src.versionAt(h.tidAt(i), asOf)
		if ok && (staged || !meta.Staged) && !fn(meta, row) {
			return
		}
	}
}

// setStaged flips a tuple's staging flag, moving the TID between the
// window deques and folding the row in or out of the maintained
// aggregates. Activation (the hot path) pops the front of staged and
// pushes the back of active, both O(1); rollback re-staging pops the
// back of active and pushes the front of staged, also O(1).
func (t *Table) setStaged(tid uint64, staged bool, undo Undo) {
	t.beginMutate()
	defer t.endMutate()
	t.heap().sortRestored()
	r, ok := t.liveRow(tid)
	if !ok || r.meta.Staged == staged {
		return
	}
	if undo != nil {
		undo.RecordStage(t, tid, r.meta.Staged)
	}
	t.preserveVersion(tid, r)
	r.meta.Staged = staged
	r.installedAt = t.stampInstalled()
	if err := t.putRow(tid, r); err != nil {
		// Unreachable in practice: staging is a window mechanism and
		// archive tables are never windows. An in-memory put cannot fail.
		panic(fmt.Sprintf("storage: stage flip in %s: %v", t.name, err))
	}
	if t.window != nil {
		if staged {
			t.window.active.Remove(tid)
			t.window.staged.PushSorted(tid)
			t.windowAggRemove(r.data)
		} else {
			t.window.staged.Remove(tid)
			t.window.active.PushSorted(tid)
			t.windowAggAdd(r.data)
			if t.window.Spec.TimeBased {
				t.window.noteActivation(timeValue(r.data[t.window.Spec.TimeColumn]))
			}
		}
	}
}

// RestoreStaged is the rollback counterpart of setStaged.
func (t *Table) RestoreStaged(tid uint64, staged bool) { t.setStaged(tid, staged, nil) }

// maybeCompact drops deleted slots from the heap. It is suppressed
// while version chains exist: a chained (deleted) tuple must stay
// listed or versioned scans would skip it.
func (t *Table) maybeCompact() {
	if len(t.olds) == 0 {
		t.heap().compact()
	}
}

// Truncate removes all rows without recording undo; used by snapshot
// load. Window tables reset their full scalar state — fill/start
// phase, slide count, deques, and maintained-aggregate accumulators —
// so a truncated window resumes from scratch, not mid-phase.
//
// Under a pinned reader, truncation routes through the version chains
// like any other mutation: every live row's pre-image is pushed onto
// its chain and its TID stays listed — O(rows retired) through the
// retire ring, no whole-table fallback image. Versioned scans keep
// resolving the pre-truncate rows until the pins advance and the ring
// drains the chains.
func (t *Table) Truncate() {
	t.beginMutate()
	defer t.endMutate()
	v := t.views
	if v != nil && v.pinCount.Load() > 0 && v.curTask.Load() > 0 {
		h := t.heap()
		for i, n := 0, h.size(); i < n; i++ {
			if r, ok := t.liveRow(h.tidAt(i)); ok {
				t.preserveVersion(h.tidAt(i), r)
			}
		}
	} else {
		t.olds = nil
	}
	// For archive tables a failure to truncate the page file leaves no
	// consistent state to continue from, so it follows the engine's
	// crash-and-recover failure model.
	if t.arch != nil {
		if err := t.arch.clear(); err != nil {
			panic(fmt.Sprintf("storage: truncate archive %s: %v", t.name, err))
		}
	}
	t.heap().killAll()
	t.maybeCompact()
	if w := t.window; w != nil {
		w.Reset(WindowMark{})
		w.active.Clear()
		w.staged.Clear()
		w.resetAggregates()
	}
	for i, idx := range t.indexes {
		switch ix := idx.(type) {
		case *index.HashIndex:
			t.indexes[i] = index.NewHashIndex(ix.Name(), ix.Columns(), ix.Unique())
		case *index.BTree:
			t.indexes[i] = index.NewBTree(ix.Name(), ix.Columns(), ix.Unique())
		}
	}
}
