// Package txn implements transaction bookkeeping for a single
// partition: a physical undo log that can roll back every table
// mutation, plus window-state capture so aborted transaction executions
// restore sliding windows to their exact pre-TE state (§2.4).
//
// Because partitions execute transactions serially (§3.1), there is no
// concurrency control here: isolation falls out of serial execution,
// and this package only has to make aborts atomic.
package txn

import (
	"fmt"

	"sstore/internal/storage"
	"sstore/internal/types"
)

// Status is a transaction's lifecycle state.
type Status uint8

const (
	// StatusActive is a running transaction.
	StatusActive Status = iota
	// StatusCommitted is a successfully finished transaction.
	StatusCommitted
	// StatusAborted is a rolled-back transaction.
	StatusAborted
)

// opKind tags undo-log entries.
type opKind uint8

const (
	opInsert opKind = iota // undo: delete the inserted tuple
	opDelete               // undo: restore the deleted tuple
	opStage                // undo: restore the previous staging flag
)

type undoOp struct {
	kind  opKind
	table *storage.Table
	tid   uint64
	meta  storage.TupleMeta
	row   types.Row
	prev  bool
}

// Txn is one transaction execution's undo state. It implements
// ee.TxnState (storage.Undo plus MarkWindow).
type Txn struct {
	id      uint64
	status  Status
	undo    []undoOp
	windows []windowMark
	marked  map[*storage.Table]bool
}

type windowMark struct {
	table *storage.Table
	mark  storage.WindowMark
}

// New begins a transaction with the given partition-local ID.
func New(id uint64) *Txn {
	return &Txn{id: id}
}

// Status returns the lifecycle state.
func (t *Txn) Status() Status { return t.status }

// RecordInsert implements storage.Undo.
func (t *Txn) RecordInsert(tbl *storage.Table, tid uint64) {
	t.undo = append(t.undo, undoOp{kind: opInsert, table: tbl, tid: tid})
}

// RecordDelete implements storage.Undo. It keeps the row itself, not
// a copy: the table has just dropped it (Delete) or replaced it with a
// new row (Update), and nothing writes into a row once a table holds
// it, so rollback restores exactly the values that were there.
func (t *Txn) RecordDelete(tbl *storage.Table, meta storage.TupleMeta, row types.Row) {
	t.undo = append(t.undo, undoOp{kind: opDelete, table: tbl, meta: meta, row: row})
}

// RecordStage implements storage.Undo.
func (t *Txn) RecordStage(tbl *storage.Table, tid uint64, prev bool) {
	t.undo = append(t.undo, undoOp{kind: opStage, table: tbl, tid: tid, prev: prev})
}

// MarkWindow implements ee.TxnState: it captures a window table's
// scalar bookkeeping once per transaction, before the first mutation.
func (t *Txn) MarkWindow(tbl *storage.Table) {
	if tbl.Window() == nil || t.marked[tbl] {
		return
	}
	if t.marked == nil {
		t.marked = make(map[*storage.Table]bool)
	}
	t.marked[tbl] = true
	t.windows = append(t.windows, windowMark{table: tbl, mark: tbl.Window().Mark()})
}

// Mutations returns the number of recorded undo entries; used by tests
// and metrics.
func (t *Txn) Mutations() int { return len(t.undo) }

// release drops every mutation reference while keeping slice capacity:
// a finished Txn must not pin tables or rows (it may sit on a free
// list), but its buffers are the whole point of recycling it.
func (t *Txn) release() {
	clear(t.undo)
	t.undo = t.undo[:0]
	clear(t.windows)
	t.windows = t.windows[:0]
	clear(t.marked)
}

// Reset re-arms a finished (committed or aborted) transaction for
// reuse under a new ID. The partition engine recycles Txns through a
// per-partition free list so steady-state TEs allocate no transaction
// state; Reset must not be called on an active transaction.
func (t *Txn) Reset(id uint64) {
	t.release()
	t.id = id
	t.status = StatusActive
}

// Commit finalizes the transaction. Durability is the caller's concern
// (the partition engine appends to the command log before calling
// Commit).
func (t *Txn) Commit() error {
	if t.status != StatusActive {
		return fmt.Errorf("txn %d: commit of %v transaction", t.id, t.status)
	}
	t.status = StatusCommitted
	t.release()
	return nil
}

// Rollback undoes every recorded mutation in reverse order, then
// restores window bookkeeping. It is idempotent on failure paths: a
// rollback of an already-aborted transaction is an error, matching
// Commit.
func (t *Txn) Rollback() error {
	if t.status != StatusActive {
		return fmt.Errorf("txn %d: rollback of %v transaction", t.id, t.status)
	}
	for i := len(t.undo) - 1; i >= 0; i-- {
		op := t.undo[i]
		switch op.kind {
		case opInsert:
			if _, err := op.table.Delete(op.tid, nil); err != nil {
				return fmt.Errorf("txn %d: undo insert: %w", t.id, err)
			}
		case opDelete:
			if err := op.table.RestoreRow(op.meta, op.row); err != nil {
				return fmt.Errorf("txn %d: undo delete: %w", t.id, err)
			}
		case opStage:
			op.table.RestoreStaged(op.tid, op.prev)
		}
	}
	for _, op := range t.undo {
		if op.kind == opDelete {
			op.table.SortRestored()
		}
	}
	for _, wm := range t.windows {
		wm.table.Window().Reset(wm.mark)
	}
	t.status = StatusAborted
	t.release()
	return nil
}
