package pe

import (
	"fmt"

	"sstore/internal/ee"
	"sstore/internal/storage"
	"sstore/internal/types"
)

// This file is the read path: read-only statements execute against a
// consistent per-partition read view without ever entering the
// partition scheduler queue. A view pins at a commit boundary (waiting
// out at most the task currently executing — never the queue behind
// it); reads then resolve each table to the live heap or a
// copy-on-write image (see internal/storage/views.go) and run the
// compiled plan off-loop. Maintained window aggregates are captured at
// pin time, so aggregate inspection is O(1) and steals nothing from the
// streaming write path. The inspection surfaces AdHoc and Tables sit on
// top of it.

// ReadView is a pinned, transaction-consistent snapshot of one
// partition. It is safe for concurrent Query calls; Close releases the
// copy-on-write images it pins. A view never observes rows committed
// after its pin, and never observes any aborted transaction's rows —
// pins land only on commit boundaries.
type ReadView struct {
	part *partition
	view *storage.ReadView
}

// ReadView pins a read view on a partition at the current commit
// boundary. The pin does not enqueue on the partition scheduler: it
// waits (off-queue) for the in-flight task only, so reads stay
// responsive even when thousands of writes are queued. Under pipelined
// group commit it then waits for the log to be durable at the pinned
// state, like any other reply leaving the partition.
func (e *Engine) ReadView(pid int) (*ReadView, error) {
	p := e.part(pid)
	if p == nil {
		return nil, e.remoteErr(pid)
	}
	v := &ReadView{part: p, view: p.views.Pin()}
	if p.release != nil {
		// Every record behind the pinned boundary was appended before
		// it, so the log's current LSN covers the view.
		if err := p.log.WaitDurable(e.logs.LastSeq()); err != nil {
			v.Close()
			return nil, err
		}
	}
	return v, nil
}

// Close releases the view. Idempotent.
func (v *ReadView) Close() { v.view.Close() }

// Epoch returns the commit boundary (completed-task count) the view is
// pinned at; later views on the same partition have equal or larger
// epochs.
func (v *ReadView) Epoch() uint64 { return v.view.Epoch() }

// Query executes one read-only statement against the view. Statements
// matching a maintained window aggregate are served from the values
// captured at pin time (O(1) in window size); everything else runs the
// compiled plan over the resolved tables. Non-SELECT statements fail
// with an error matching ee.ErrNotReadOnly.
func (v *ReadView) Query(stmt string, params ...types.Value) (*ee.Result, error) {
	plan, err := v.part.readPlan(stmt)
	if err != nil {
		return nil, err
	}
	if table, refs, ok := plan.Maintained(); ok {
		if t, exists := v.part.cat.Lookup(table); exists &&
			t.Kind() == storage.KindWindow && t.OwnerSP != "" {
			return nil, fmt.Errorf("ee: window %s is private to stored procedure %s (accessed from read view)", table, t.OwnerSP)
		}
		vals := make([]types.Value, len(refs))
		for i, r := range refs {
			val, ok := v.view.MaintainedValue(table, r.Fn, r.Col)
			if !ok {
				return nil, fmt.Errorf("pe: view captured no maintained %s over %s", r.Fn, table)
			}
			vals[i] = val
		}
		return plan.RunMaintained(vals, params)
	}
	// Resolve every referenced table to its boundary state and run the
	// plan over an ephemeral catalog of the resolved tables. Resolution
	// takes table read latches in sorted name order — see TablesSorted —
	// so concurrent multi-table readers cannot deadlock through a
	// writer's pending latch.
	cat := storage.NewCatalog()
	releases := make([]func(), 0, len(plan.Tables()))
	defer func() {
		for _, r := range releases {
			r()
		}
	}()
	for _, name := range plan.TablesSorted() {
		t, release, err := v.view.Table(name)
		if err != nil {
			return nil, err
		}
		releases = append(releases, release)
		if err := cat.Create(t); err != nil {
			return nil, err
		}
	}
	return plan.Run(cat, params)
}

// Read pins a view, runs one read-only statement, and releases the
// view: the one-shot form of ReadView + Query + Close. It never enters
// the partition scheduler queue.
func (e *Engine) Read(pid int, stmt string, params ...types.Value) (*ee.Result, error) {
	v, err := e.ReadView(pid)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	return v.Query(stmt, params...)
}

// readPlan compiles (or returns the cached) read-only plan for a
// statement. The cache is per partition and guarded by readMu; plans
// themselves are immutable and shared across concurrent readers.
// Compilation reads catalog schemas, which — like all DDL — are fixed
// before traffic starts.
func (p *partition) readPlan(text string) (*ee.ReadPlan, error) {
	// Lock order is ddlMu → readMu everywhere: the DDL paths hold
	// ddlMu exclusively and then invalidate this cache (readMu), so
	// taking them in the opposite order here would deadlock. Holding
	// ddlMu across the compile also excludes runtime DDL from mutating
	// index lists and aggregate registrations mid-compilation.
	p.ddlMu.RLock()
	defer p.ddlMu.RUnlock()
	p.readMu.Lock()
	defer p.readMu.Unlock()
	if pl, ok := p.readPlans[text]; ok {
		return pl, nil
	}
	pl, err := ee.CompileReadOnly(text, p.cat)
	if err != nil {
		return nil, err
	}
	// The cache is keyed by raw statement text and fed by network
	// clients (OpQuery): bound it so a client inlining literals cannot
	// grow it without limit. Plans are cheap to recompile, so a full
	// cache simply resets.
	if len(p.readPlans) >= maxReadPlans {
		p.readPlans = make(map[string]*ee.ReadPlan)
	}
	p.readPlans[text] = pl
	return pl, nil
}

// maxReadPlans bounds the per-partition read-plan cache.
const maxReadPlans = 4096

// invalidateReadPlans drops the read-plan cache; DDL and maintained-
// aggregate registration call it so stale probe/maintained decisions
// never outlive the catalog change.
func (p *partition) invalidateReadPlans() {
	p.readMu.Lock()
	p.readPlans = make(map[string]*ee.ReadPlan)
	p.readMu.Unlock()
}

// AdHoc runs a single ad-hoc SQL statement on the given partition;
// intended for tests, examples, and inspection.
//
// Read-only statements (SELECTs) are served from the snapshot read
// path: a view pinned at the current commit boundary, off the
// partition scheduler queue, so inspection never steals throughput
// from the streaming write path. DDL and writes still run as control
// work on the partition goroutine — but ad-hoc writes are rejected
// when command logging is enabled, because they would commit without a
// log record and silently vanish on recovery; route durable writes
// through a registered stored procedure instead.
func (e *Engine) AdHoc(pid int, stmtText string, params ...types.Value) (*ee.Result, error) {
	part := e.part(pid)
	if part == nil {
		return nil, e.remoteErr(pid)
	}
	readOnly, ddl, err := ee.Classify(stmtText)
	if err != nil {
		return nil, err
	}
	if readOnly {
		return e.Read(pid, stmtText, params...)
	}
	if !ddl && e.logs != nil {
		return nil, fmt.Errorf(
			"pe: ad-hoc write %q rejected: command logging is enabled and ad-hoc transactions are not logged, so the write would vanish on recovery; use a registered stored procedure", stmtText)
	}
	var out *ee.Result
	err = e.onPartition(part, func(p *partition) error {
		if ddl {
			// Exclude off-loop plan compilation while the catalog and
			// index lists change.
			p.ddlMu.Lock()
			defer p.ddlMu.Unlock()
		}
		tx := p.beginTxn()
		ectx := &ee.ExecCtx{Txn: tx}
		res, err := p.exec.Execute(stmtText, params, ectx)
		if err != nil {
			_ = tx.Rollback()
			p.recycleTxn(tx)
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		p.recycleTxn(tx)
		if ddl {
			p.invalidateReadPlans()
		}
		out = res
		return nil
	})
	return out, err
}

// TableInfo describes one catalog entry for introspection.
type TableInfo struct {
	Name   string
	Kind   string // TABLE, STREAM, or WINDOW
	Rows   int    // visible rows (staged window rows excluded)
	Schema string
}

// Tables lists a partition's catalog in name order. It reads through a
// pinned view — every row count reflects one commit boundary, and the
// listing never enters the partition scheduler queue.
func (e *Engine) Tables(pid int) ([]TableInfo, error) {
	v, err := e.ReadView(pid)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	var out []TableInfo
	for _, name := range v.part.cat.Names() {
		t, release, err := v.view.Table(name)
		if err != nil {
			return nil, err
		}
		out = append(out, TableInfo{
			Name:   t.Name(),
			Kind:   t.Kind().String(),
			Rows:   t.ActiveLen(),
			Schema: t.Schema().String(),
		})
		release()
	}
	return out, nil
}
