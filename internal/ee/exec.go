package ee

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sstore/internal/index"
	"sstore/internal/sql"
	"sstore/internal/storage"
	"sstore/internal/types"
)

// maxTriggerDepth bounds EE-trigger cascades to catch accidental
// cycles; workflows in practice are shallow DAGs.
const maxTriggerDepth = 64

// Result is the outcome of executing one statement.
type Result struct {
	// Columns names the result columns of a SELECT.
	Columns []string
	// Rows holds SELECT output rows.
	Rows []types.Row
	// RowsAffected counts rows written by INSERT/UPDATE/DELETE.
	RowsAffected int
}

// TxnState is what the executor needs from the enclosing transaction:
// physical undo recording plus one-shot window-state capture so aborts
// restore window bookkeeping (§2.4).
type TxnState interface {
	storage.Undo
	// MarkWindow captures the window's scalar state the first time
	// the transaction touches it.
	MarkWindow(t *storage.Table)
}

// StreamAppend records that a statement appended an atomic batch to a
// stream table; the partition engine turns these into PE-trigger
// invocations at commit (§3.2.3).
type StreamAppend struct {
	Table   string
	BatchID int64
}

// ExecCtx is the per-transaction-execution context threaded through
// statement execution.
type ExecCtx struct {
	// SP is the executing stored procedure's name; empty for ad-hoc
	// OLTP statements. Window tables may only be touched by their
	// owning SP.
	SP string
	// BatchID is the atomic batch being processed; inserts into
	// stream tables tag tuples with it.
	BatchID int64
	// Txn records undo information; nil disables rollback support
	// (used only by tests and recovery internals).
	Txn TxnState
	// Allowed, when non-nil, is the enclosing stored procedure's
	// declared access set: every statement's compiled access must be
	// covered by it or the statement fails before touching any table.
	// The partition engine sets it for procedures with declared
	// accesses (in both serial and parallel execution, so behavior
	// does not depend on the worker count); nil disables enforcement.
	Allowed *AccessSet
	// Appends accumulates stream appends for PE-trigger dispatch.
	Appends []StreamAppend
	depth   int
	// claims are the statements whose scratch this execution holds
	// until Reset (see prepared.claim).
	claims []*prepared
}

func (ctx *ExecCtx) undo() storage.Undo {
	if ctx.Txn == nil {
		return nil
	}
	return ctx.Txn
}

// Reset re-arms a recycled context for a new transaction execution,
// keeping the appends buffer's capacity, and releases the statement
// scratch the previous execution claimed: results of its Exec runs are
// invalid from here on. The partition engine pools contexts per
// partition so steady-state TEs allocate none.
func (ctx *ExecCtx) Reset(sp string, batchID int64, tx TxnState, allowed *AccessSet) {
	ctx.releaseClaims()
	*ctx = ExecCtx{SP: sp, BatchID: batchID, Txn: tx, Allowed: allowed, Appends: ctx.Appends[:0], claims: ctx.claims}
}

// Trigger is an EE trigger (§3.2.3): SQL statements attached to a
// stream or window table, executed in the same transaction as the
// insert that fired them. For stream tables the trigger fires on every
// atomic-batch insert; for window tables it fires when an insert causes
// the window to slide. Statements receive the current batch ID as
// parameter ?1.
type Trigger struct {
	Table string
	Stmts []string
}

// Executor runs SQL statements against one partition's catalog.
// Statement execution runs on the partition's goroutine or, for
// non-conflicting transactions, on its worker pool; those goroutines
// share the plan cache, guarded by mu, and each compiled statement's
// scratch, which one execution at a time claims (prepared.claim).
// Triggers and peConsumed are registered at setup time and read-only
// afterwards.
type Executor struct {
	cat *storage.Catalog
	// mu guards plans: worker goroutines executing a parallel wave
	// prepare statements concurrently. Compilation happens outside
	// the lock; the critical sections are map operations only.
	mu    sync.RWMutex
	plans map[string]*prepared
	// declared are the statements stored procedures declared; mu
	// guards the list, and InvalidatePlans recompiles each.
	declared   []*Stmt
	triggers   map[string][]*Trigger
	peConsumed map[string]bool // streams consumed by PE triggers: no EE-level GC
}

// NewExecutor creates an executor over a catalog.
func NewExecutor(cat *storage.Catalog) *Executor {
	return &Executor{
		cat:        cat,
		plans:      make(map[string]*prepared),
		triggers:   make(map[string][]*Trigger),
		peConsumed: make(map[string]bool),
	}
}

// AddTrigger attaches an EE trigger to its table. Windows accept EE
// triggers; streams accept EE triggers; plain tables do not (§3.2.3).
func (e *Executor) AddTrigger(tr *Trigger) error {
	t, err := e.cat.Get(tr.Table)
	if err != nil {
		return err
	}
	if t.Kind() == storage.KindTable {
		return fmt.Errorf("ee: EE triggers attach to streams or windows, not table %s", tr.Table)
	}
	// Validate the statements parse now; they are planned lazily
	// because downstream tables may not exist yet.
	for _, s := range tr.Stmts {
		if _, err := sql.Parse(s); err != nil {
			return fmt.Errorf("ee: trigger on %s: %w", tr.Table, err)
		}
	}
	key := lowerName(tr.Table)
	e.triggers[key] = append(e.triggers[key], tr)
	return nil
}

// SetPEConsumed marks a stream as consumed by a PE trigger, disabling
// the EE layer's automatic batch GC for it (the partition engine
// garbage-collects after the downstream TE commits).
func (e *Executor) SetPEConsumed(table string) {
	e.peConsumed[lowerName(table)] = true
}

// InvalidatePlans drops the plan cache and recompiles every declared
// statement against the current catalog; call after DDL or a
// maintained-aggregate registration, on the partition's goroutine
// while no transaction execution runs.
func (e *Executor) InvalidatePlans() {
	e.mu.Lock()
	e.plans = make(map[string]*prepared)
	declared := e.declared
	e.mu.Unlock()
	for _, s := range declared {
		s.p, s.err = e.compileText(s.text)
	}
}

// Declare compiles a stored procedure's statement once and keeps it
// current across InvalidatePlans. The statement gets its own compiled
// plan and scratch, not the plan cache's entry for its text, so no
// ad hoc run, EE trigger or other declaration of the same text can
// overwrite a result it handed out. DDL cannot be declared.
func (e *Executor) Declare(text string) (*Stmt, error) {
	p, err := e.compileText(text)
	if err != nil {
		return nil, err
	}
	if p.ddl != nil {
		return nil, fmt.Errorf("ee: declared statement %q is DDL", text)
	}
	s := &Stmt{text: text, p: p}
	e.mu.Lock()
	e.declared = append(e.declared, s)
	e.mu.Unlock()
	return s, nil
}

// lowerName folds ASCII upper case for case-insensitive table keys.
// Names are almost always lower case already (the parser folds
// identifiers), and those come back unchanged without allocating: it
// runs on every stream insert and trigger dispatch.
//
//sstore:nomalloc
func lowerName(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			//lint:allow hotalloc -- only a name with upper-case bytes is copied
			return foldUpper(s)
		}
	}
	return s
}

// foldUpper returns s with ASCII upper case folded to lower case.
func foldUpper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}

// prepared is a compiled statement and its scratch.
type prepared struct {
	sel *selectPlan
	ins *insertPlan
	upd *updatePlan
	del *deletePlan
	ddl sql.Statement
	// access is the statement's table-granularity read/write
	// footprint, emitted at compile time; nil for DDL (unbounded).
	access *AccessSet
	// tables are the plan's tables resolved in the executor's catalog
	// at compile time, so a run looks none up: the target or base
	// table first, then an INSERT … SELECT's base table, then each
	// join's inner table. SQL only ever creates tables, and DDL
	// recompiles, so the pointers stay current for the plan's life.
	tables []*storage.Table

	// owner is the transaction execution holding sc (nil: free);
	// scoped marks a claim that ends with the current run. See claim.
	owner  atomic.Pointer[ExecCtx]
	scoped bool
	sc     scratch
}

type insertPlan struct {
	table  string
	key    string // lower-cased table name: the stream append's key
	colMap []int  // target ordinal for each value position
	rows   [][]compiledExpr
	query  *selectPlan
}

type updatePlan struct {
	table  string
	probe  *indexProbe
	filter compiledExpr
	sets   []struct {
		ord  int
		expr compiledExpr
	}
}

type deletePlan struct {
	table  string
	probe  *indexProbe
	filter compiledExpr
}

// Prepare parses and plans a statement, caching by text. Safe for
// concurrent use: on a cache miss the statement compiles outside the
// lock and the first finished compilation wins.
func (e *Executor) Prepare(text string) (*prepared, error) {
	e.mu.RLock()
	p, ok := e.plans[text]
	e.mu.RUnlock()
	if ok {
		return p, nil
	}
	p, err := e.compileText(text)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if prev, ok := e.plans[text]; ok {
		e.mu.Unlock()
		return prev, nil
	}
	e.plans[text] = p
	e.mu.Unlock()
	return p, nil
}

// accessSet builds a statement's access set, reclassifying window
// tables as writes (maintained-aggregate reads mutate lazily; see
// AccessSet).
func (e *Executor) accessSet(readTables, writeTables []string) *AccessSet {
	var reads, writes []string
	for _, n := range readTables {
		if t, err := e.cat.Get(n); err == nil && t.Kind() == storage.KindWindow {
			writes = append(writes, n)
		} else {
			reads = append(reads, n)
		}
	}
	writes = append(writes, writeTables...)
	return NewAccessSet(reads, writes)
}

// selTables lists every table a select plan touches.
func selTables(p *selectPlan) []string {
	tbls := []string{p.baseTable}
	for _, j := range p.joins {
		tbls = append(tbls, j.table)
	}
	return tbls
}

// compileText parses and compiles one statement, bypassing the cache.
func (e *Executor) compileText(text string) (*prepared, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	return e.compile(stmt)
}

func (e *Executor) compile(stmt sql.Statement) (*prepared, error) {
	p, err := e.compilePlan(stmt)
	if err != nil {
		return nil, err
	}
	var names []string
	switch {
	case p.sel != nil:
		names = selTables(p.sel)
	case p.ins != nil:
		names = []string{p.ins.table}
		if p.ins.query != nil {
			names = append(names, selTables(p.ins.query)...)
		}
	case p.upd != nil:
		names = []string{p.upd.table}
	case p.del != nil:
		names = []string{p.del.table}
	}
	for _, n := range names {
		t, err := e.cat.Get(n)
		if err != nil {
			return nil, err
		}
		p.tables = append(p.tables, t)
	}
	return p, nil
}

func (e *Executor) compilePlan(stmt sql.Statement) (*prepared, error) {
	switch s := stmt.(type) {
	case *sql.Select:
		plan, err := compileSelect(s, e.cat)
		if err != nil {
			return nil, err
		}
		return &prepared{sel: plan, access: e.accessSet(selTables(plan), nil)}, nil
	case *sql.Insert:
		plan, err := e.compileInsert(s)
		if err != nil {
			return nil, err
		}
		var queryReads []string
		if plan.query != nil {
			queryReads = selTables(plan.query)
		}
		return &prepared{ins: plan, access: e.accessSet(queryReads, []string{plan.table})}, nil
	case *sql.Update:
		plan, err := e.compileUpdate(s)
		if err != nil {
			return nil, err
		}
		return &prepared{upd: plan, access: e.accessSet(nil, []string{plan.table})}, nil
	case *sql.Delete:
		plan, err := e.compileDelete(s)
		if err != nil {
			return nil, err
		}
		return &prepared{del: plan, access: e.accessSet(nil, []string{plan.table})}, nil
	case *sql.CreateTable, *sql.CreateWindow, *sql.CreateIndex:
		// DDL's footprint is unbounded at plan time: access stays nil,
		// which Check rejects for declared procedures.
		return &prepared{ddl: stmt}, nil
	default:
		return nil, fmt.Errorf("ee: unsupported statement %T", stmt)
	}
}

func (e *Executor) compileInsert(s *sql.Insert) (*insertPlan, error) {
	t, err := e.cat.Get(s.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()
	plan := &insertPlan{table: s.Table, key: lowerName(s.Table)}
	if len(s.Columns) > 0 {
		plan.colMap = make([]int, len(s.Columns))
		for i, c := range s.Columns {
			ord, ok := schema.Index(c)
			if !ok {
				return nil, fmt.Errorf("ee: table %s has no column %s", s.Table, c)
			}
			plan.colMap[i] = ord
		}
	}
	width := schema.Len()
	if plan.colMap != nil {
		width = len(plan.colMap)
	}
	if s.Query != nil {
		qp, err := compileSelect(s.Query, e.cat)
		if err != nil {
			return nil, err
		}
		if len(qp.colNames) != width {
			return nil, fmt.Errorf("ee: INSERT SELECT arity %d, target %d", len(qp.colNames), width)
		}
		plan.query = qp
		return plan, nil
	}
	for _, row := range s.Rows {
		if len(row) != width {
			return nil, fmt.Errorf("ee: INSERT row arity %d, target %d", len(row), width)
		}
		var compiled []compiledExpr
		for _, ex := range row {
			ce, err := compileExpr(ex, newScope(), nil)
			if err != nil {
				return nil, err
			}
			compiled = append(compiled, ce)
		}
		plan.rows = append(plan.rows, compiled)
	}
	return plan, nil
}

func (e *Executor) compileUpdate(s *sql.Update) (*updatePlan, error) {
	t, err := e.cat.Get(s.Table)
	if err != nil {
		return nil, err
	}
	sc := newScope()
	sc.addTable(lowerName(s.Table), t.Schema())
	plan := &updatePlan{table: s.Table}
	if s.Where != nil {
		probe, residual, err := extractIndexProbe(s.Where, lowerName(s.Table), t, sc)
		if err != nil {
			return nil, err
		}
		plan.probe = probe
		if residual != nil {
			f, err := compileExpr(residual, sc, nil)
			if err != nil {
				return nil, err
			}
			plan.filter = f
		}
	}
	for _, set := range s.Set {
		ord, ok := t.Schema().Index(set.Column)
		if !ok {
			return nil, fmt.Errorf("ee: table %s has no column %s", s.Table, set.Column)
		}
		ce, err := compileExpr(set.Value, sc, nil)
		if err != nil {
			return nil, err
		}
		plan.sets = append(plan.sets, struct {
			ord  int
			expr compiledExpr
		}{ord, ce})
	}
	return plan, nil
}

func (e *Executor) compileDelete(s *sql.Delete) (*deletePlan, error) {
	t, err := e.cat.Get(s.Table)
	if err != nil {
		return nil, err
	}
	sc := newScope()
	sc.addTable(lowerName(s.Table), t.Schema())
	plan := &deletePlan{table: s.Table}
	if s.Where != nil {
		probe, residual, err := extractIndexProbe(s.Where, lowerName(s.Table), t, sc)
		if err != nil {
			return nil, err
		}
		plan.probe = probe
		if residual != nil {
			f, err := compileExpr(residual, sc, nil)
			if err != nil {
				return nil, err
			}
			plan.filter = f
		}
	}
	return plan, nil
}

// Execute runs one SQL statement with parameters under the given
// execution context. The statement is compiled once into the plan
// cache and runs like a declared one; its result is then copied into
// fresh memory, so the caller may retain it.
func (e *Executor) Execute(text string, params []types.Value, ctx *ExecCtx) (*Result, error) {
	p, err := e.Prepare(text)
	if err != nil {
		return nil, err
	}
	return e.runStmt(p, params, ctx, runQuery)
}

// Exec runs a declared statement under the given execution context.
// The result lives in the statement's scratch: it is valid until the
// same statement's next run in this execution, or until ctx is Reset,
// whichever comes first. Callers copy what they keep longer.
func (e *Executor) Exec(s *Stmt, params []types.Value, ctx *ExecCtx) (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	return e.runStmt(s.p, params, ctx, runDeclared)
}

// execTrigger runs an EE trigger's statement, whose result nobody
// reads.
func (e *Executor) execTrigger(text string, params []types.Value, ctx *ExecCtx) error {
	p, err := e.Prepare(text)
	if err != nil {
		return err
	}
	_, err = e.runStmt(p, params, ctx, runTrigger)
	return err
}

// runKind says how long a run holds its statement's scratch and what
// becomes of its result (see prepared.claim).
type runKind uint8

const (
	runQuery    runKind = iota // claim for the run; the result is copied out before release
	runDeclared                // claim until ctx is Reset; the result stays in scratch
	runTrigger                 // claim for the run; nobody reads the result
)

// runStmt runs p under ctx on the statement's own scratch when ctx can
// claim it, else on fresh scratch.
func (e *Executor) runStmt(p *prepared, params []types.Value, ctx *ExecCtx, kind runKind) (*Result, error) {
	sc := p.claim(ctx, kind == runDeclared)
	res, err := e.run(p, sc, params, ctx)
	if err == nil && kind == runQuery {
		res = res.Clone()
	}
	if sc != nil {
		sc.trim()
		p.done()
	}
	return res, err
}

// run executes p once on sc, or on fresh scratch when sc is nil (the
// statement's own is held by another execution, or mid-run).
func (e *Executor) run(p *prepared, sc *scratch, params []types.Value, ctx *ExecCtx) (*Result, error) {
	// Declared-access enforcement: every statement — the body's and any
	// EE trigger's, which recurses through execTrigger with the same
	// ctx — must stay inside the procedure's declared footprint. The
	// check runs before the statement touches any table, so a wrong
	// declaration aborts the TE instead of racing a concurrent one.
	if ctx.Allowed != nil {
		if err := ctx.Allowed.Check(p.access); err != nil {
			return nil, err
		}
	}
	if p.ddl != nil {
		return e.runDDL(p.ddl, ctx)
	}
	if sc == nil {
		sc = new(scratch)
	}
	sc.setParams(params)
	switch {
	case p.sel != nil:
		for _, t := range p.tables {
			if err := checkWindowAccess(t, ctx); err != nil {
				return nil, err
			}
		}
		return p.sel.run(p.tables, &sc.sel, &sc.env)
	case p.ins != nil:
		return e.runInsert(p, sc, ctx)
	case p.upd != nil:
		return e.runUpdate(p, sc, ctx)
	case p.del != nil:
		return e.runDelete(p, sc, ctx)
	default:
		return nil, fmt.Errorf("ee: empty plan")
	}
}

// checkWindowAccess enforces the paper's window scoping rule (§3.2.2):
// a window table is only visible to transaction executions of its
// owning stored procedure.
func checkWindowAccess(t *storage.Table, ctx *ExecCtx) error {
	if t.Kind() == storage.KindWindow && t.OwnerSP != "" && t.OwnerSP != ctx.SP {
		return fmt.Errorf("ee: window %s is private to stored procedure %s (accessed from %q)", t.Name(), t.OwnerSP, ctx.SP)
	}
	return nil
}

// runInsert evaluates every row first, then inserts them. Each row the
// table receives is allocated for it — the table keeps it — while the
// SELECT's output and a column list's values stay in scratch.
func (e *Executor) runInsert(p *prepared, sc *scratch, ctx *ExecCtx) (*Result, error) {
	ip, t := p.ins, p.tables[0]
	if err := checkWindowAccess(t, ctx); err != nil {
		return nil, err
	}
	width := t.Schema().Len()
	var src []types.Row
	n := len(ip.rows)
	if ip.query != nil {
		qres, err := ip.query.run(p.tables[1:], &sc.sel, &sc.env)
		if err != nil {
			return nil, err
		}
		src, n = qres.Rows, len(qres.Rows)
	}
	defer sc.dropInserted()
	for i := 0; i < n; i++ {
		full := make(types.Row, width)
		vals := full // VALUES without a column list evaluate in place
		switch {
		case src != nil:
			vals = src[i]
		case ip.colMap != nil:
			if cap(sc.vals) < len(ip.colMap) {
				sc.vals = make(types.Row, len(ip.colMap))
			}
			vals = sc.vals[:len(ip.colMap)]
		}
		if src == nil {
			for j, ce := range ip.rows[i] {
				v, err := ce(&sc.env)
				if err != nil {
					return nil, err
				}
				vals[j] = v
			}
		}
		if ip.colMap == nil {
			copy(full, vals)
		} else {
			for j, ord := range ip.colMap {
				full[ord] = vals[j]
			}
		}
		sc.inserted = append(sc.inserted, full)
	}
	if t.Kind() == storage.KindWindow && ctx.Txn != nil {
		ctx.Txn.MarkWindow(t)
	}
	slid := false
	for _, row := range sc.inserted {
		res, err := t.Insert(row, ctx.BatchID, ctx.undo())
		if err != nil {
			return nil, err
		}
		slid = slid || res.Slid
	}
	if n > 0 {
		switch t.Kind() {
		case storage.KindStream:
			ctx.Appends = append(ctx.Appends, StreamAppend{Table: ip.key, BatchID: ctx.BatchID})
			if err := e.fireTriggers(t, ip.key, ctx); err != nil {
				return nil, err
			}
		case storage.KindWindow:
			if slid {
				if err := e.fireTriggers(t, ip.key, ctx); err != nil {
					return nil, err
				}
			}
		}
	}
	sc.res = Result{RowsAffected: n}
	return &sc.res, nil
}

// fireTriggers runs the EE triggers attached to a table (key is its
// lower-cased name), then garbage-collects the consumed batch for
// streams not owned by a PE trigger (§3.2.3).
func (e *Executor) fireTriggers(t *storage.Table, key string, ctx *ExecCtx) error {
	trs := e.triggers[key]
	if len(trs) > 0 {
		if ctx.depth >= maxTriggerDepth {
			return fmt.Errorf("ee: trigger cascade deeper than %d on %s", maxTriggerDepth, t.Name())
		}
		ctx.depth++
		batchParam := [1]types.Value{types.NewInt(ctx.BatchID)}
		for _, tr := range trs {
			for _, stmt := range tr.Stmts {
				if err := e.execTrigger(stmt, batchParam[:], ctx); err != nil {
					ctx.depth--
					return fmt.Errorf("ee: trigger on %s: %w", t.Name(), err)
				}
			}
		}
		ctx.depth--
	}
	if t.Kind() == storage.KindStream && len(trs) > 0 && !e.peConsumed[key] {
		storage.DeleteBatch(t, ctx.BatchID, ctx.undo())
	}
	return nil
}

func (e *Executor) runUpdate(p *prepared, sc *scratch, ctx *ExecCtx) (*Result, error) {
	up, t := p.upd, p.tables[0]
	if err := checkWindowAccess(t, ctx); err != nil {
		return nil, err
	}
	if t.Kind() == storage.KindWindow && ctx.Txn != nil {
		ctx.Txn.MarkWindow(t)
	}
	tids, err := matchTIDs(t, up.probe, up.filter, sc)
	if err != nil {
		return nil, err
	}
	env := &sc.env
	for _, tid := range tids {
		_, old, ok := t.Get(tid)
		if !ok {
			continue
		}
		env.row = old
		newRow := old.Clone()
		for _, set := range up.sets {
			v, err := set.expr(env)
			if err != nil {
				return nil, err
			}
			newRow[set.ord] = v
		}
		if err := t.Update(tid, newRow, ctx.undo()); err != nil {
			return nil, err
		}
	}
	sc.res = Result{RowsAffected: len(tids)}
	return &sc.res, nil
}

func (e *Executor) runDelete(p *prepared, sc *scratch, ctx *ExecCtx) (*Result, error) {
	dp, t := p.del, p.tables[0]
	if err := checkWindowAccess(t, ctx); err != nil {
		return nil, err
	}
	if t.Kind() == storage.KindWindow && ctx.Txn != nil {
		ctx.Txn.MarkWindow(t)
	}
	tids, err := matchTIDs(t, dp.probe, dp.filter, sc)
	if err != nil {
		return nil, err
	}
	for _, tid := range tids {
		if _, err := t.Delete(tid, ctx.undo()); err != nil {
			return nil, err
		}
	}
	sc.res = Result{RowsAffected: len(tids)}
	return &sc.res, nil
}

// matchTIDs evaluates the access path of UPDATE/DELETE, returning the
// matching tuple IDs (in sc) before any mutation happens.
func matchTIDs(t *storage.Table, probe *indexProbe, filter compiledExpr, sc *scratch) ([]uint64, error) {
	env := &sc.env
	tids := sc.tids[:0]
	consider := func(meta storage.TupleMeta, row types.Row) (bool, error) {
		if meta.Staged {
			return false, nil
		}
		if filter != nil {
			env.row = row
			ok, err := boolOf(filter, env)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}
	if probe != nil {
		key := sc.key[:0]
		for _, ke := range probe.keyExprs {
			v, err := ke(env)
			if err != nil {
				return nil, err
			}
			key = append(key, v)
		}
		sc.key = key
		idx := findIndex(t, probe.indexName)
		if idx == nil {
			return nil, fmt.Errorf("ee: plan references missing index %s", probe.indexName)
		}
		for _, tid := range idx.Lookup(key) {
			meta, row, ok := t.Get(tid)
			if !ok {
				continue
			}
			match, err := consider(meta, row)
			if err != nil {
				return nil, err
			}
			if match {
				tids = append(tids, tid)
			}
		}
		sc.tids = tids
		return tids, nil
	}
	var scanErr error
	t.Scan(func(meta storage.TupleMeta, row types.Row) bool {
		match, err := consider(meta, row)
		if err != nil {
			scanErr = err
			return false
		}
		if match {
			tids = append(tids, meta.TID)
		}
		return true
	})
	sc.tids = tids
	return tids, scanErr
}

// runDDL executes CREATE TABLE/STREAM/WINDOW/INDEX. DDL is not
// transactional; it is intended for setup time.
func (e *Executor) runDDL(stmt sql.Statement, ctx *ExecCtx) (*Result, error) {
	defer e.InvalidatePlans()
	switch s := stmt.(type) {
	case *sql.CreateTable:
		cols := make([]types.Column, len(s.Columns))
		var pk []int
		for i, c := range s.Columns {
			cols[i] = types.Column{Name: c.Name, Kind: c.Kind}
			if c.PrimaryKey {
				pk = append(pk, i)
			}
		}
		schema, err := types.NewSchema(cols...)
		if err != nil {
			return nil, err
		}
		kind := storage.KindTable
		if s.Stream {
			kind = storage.KindStream
		}
		var t *storage.Table
		if s.Archive {
			site, err := e.cat.ArchiveSite()
			if err != nil {
				return nil, err
			}
			if t, err = storage.NewArchiveTable(s.Name, schema, site); err != nil {
				return nil, err
			}
		} else {
			t = storage.NewTable(s.Name, kind, schema)
		}
		if len(pk) > 0 {
			if err := t.AddIndex(index.NewHashIndex(s.Name+"_pk", pk, true)); err != nil {
				return nil, err
			}
		}
		if err := e.cat.Create(t); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.CreateWindow:
		cols := make([]types.Column, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = types.Column{Name: c.Name, Kind: c.Kind}
		}
		schema, err := types.NewSchema(cols...)
		if err != nil {
			return nil, err
		}
		spec := storage.WindowSpec{Size: s.Size, Slide: s.Slide}
		if s.TimeColumn != "" {
			ord, ok := schema.Index(s.TimeColumn)
			if !ok {
				return nil, fmt.Errorf("ee: window %s: no column %s", s.Name, s.TimeColumn)
			}
			spec.TimeBased = true
			spec.TimeColumn = ord
		}
		t, err := storage.NewWindowTable(s.Name, schema, spec)
		if err != nil {
			return nil, err
		}
		t.OwnerSP = ctx.SP
		if err := e.cat.Create(t); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.CreateIndex:
		t, err := e.cat.Get(s.Table)
		if err != nil {
			return nil, err
		}
		cols := make([]int, len(s.Columns))
		for i, c := range s.Columns {
			ord, ok := t.Schema().Index(c)
			if !ok {
				return nil, fmt.Errorf("ee: table %s has no column %s", s.Table, c)
			}
			cols[i] = ord
		}
		var idx index.Index
		if s.BTree {
			idx = index.NewBTree(s.Name, cols, s.Unique)
		} else {
			idx = index.NewHashIndex(s.Name, cols, s.Unique)
		}
		return &Result{}, t.AddIndex(idx)
	default:
		return nil, fmt.Errorf("ee: unsupported DDL %T", stmt)
	}
}
