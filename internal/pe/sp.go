package pe

import (
	"fmt"

	"sstore/internal/ee"
	"sstore/internal/stream"
	"sstore/internal/types"
)

// ProcFunc is the body of a stored procedure: the host-language half of
// H-Store's "SQL + Java" procedures (§3.1). It issues SQL through the
// context; returning an error aborts and rolls back the TE.
type ProcFunc func(ctx *ProcCtx) error

// ProcAccess declares a stored procedure's table-granularity access
// footprint: every table its body (including any EE trigger its
// statements fire) may read or write. The planner cannot see a Go
// body, so the declaration is the per-SP aggregation of statement
// access sets — and it is enforced: each statement's compiled access
// must be covered by the declaration or the statement errors, aborting
// the TE, so a wrong declaration fails loudly instead of racing.
// The consumed input stream is added automatically.
type ProcAccess struct {
	Reads  []string
	Writes []string
}

// StoredProc is a registered transaction definition (§2): procedures
// are defined once and instantiated many times, by client pull (OLTP)
// or data push (streaming).
type StoredProc struct {
	// Name identifies the procedure; case-sensitive.
	Name string
	// Func is the procedure body.
	Func ProcFunc
	// Stmts declares the body's SQL, as H-Store procedures declare
	// their statements (§3.1): each text is compiled once per partition
	// at registration, and the body runs statement i with
	// ProcCtx.Exec(i, …). Ad hoc SQL still goes through ProcCtx.Query.
	Stmts []string
	// Access, when non-nil, declares the body's read/write footprint,
	// making the procedure a candidate for intra-partition parallel
	// execution (Options.Workers): TEs whose declared sets do not
	// conflict may run concurrently. Nil means the accesses are
	// unknown and the procedure is serial-only.
	Access *ProcAccess
}

// ProcCtx is a transaction execution's view of the engine: parameter
// access, SQL execution against the local partition, and result
// reporting. It is valid only for the duration of the ProcFunc call.
type ProcCtx struct {
	part   *partition
	ectx   *ee.ExecCtx
	params types.Row
	// in is the consumed batch; its rows are kept only for a border TE.
	in     stream.Batch
	stmts  []*ee.Stmt // the procedure's declared statements, compiled here
	result *Result
}

// Params returns the invocation parameters (client-supplied for OLTP,
// engine-supplied for streaming TEs).
func (c *ProcCtx) Params() types.Row { return c.params }

// BatchID returns the atomic batch being processed; 0 for OLTP.
func (c *ProcCtx) BatchID() int64 { return c.in.ID }

// BatchRows returns the raw tuples of the input batch for border TEs,
// live or replayed; nil for every other TE. Interior and hand-off TEs
// read their input stream table instead, wherever they run.
func (c *ProcCtx) BatchRows() []types.Row { return c.in.Rows }

// Partition returns the executing partition's index.
func (c *ProcCtx) Partition() int { return c.part.id }

// SP returns the executing stored procedure's name.
func (c *ProcCtx) SP() string { return c.ectx.SP }

// Query executes one ad hoc SQL statement inside the current
// transaction; its result is a copy the caller may retain. Each call
// crosses the PE→EE boundary once when boundary simulation
// is enabled — the cost EE triggers exist to avoid (§3.2.3): statements
// run by EE triggers execute inside the EE without re-crossing.
func (c *ProcCtx) Query(stmt string, params ...types.Value) (*ee.Result, error) {
	p := types.Row(params)
	if b := c.part.eng.boundary; b != nil {
		p = b.Cross(p)
	}
	return c.part.exec.Execute(stmt, p, c.ectx)
}

// Exec runs the procedure's declared statement i (StoredProc.Stmts)
// inside the current transaction, crossing the PE→EE boundary and
// checking the declared access set exactly as Query does. The result
// is the statement's own scratch: it stays valid until this TE runs
// statement i again, and at the latest until the TE ends. Copy what
// must live longer; SetResult copies for you.
func (c *ProcCtx) Exec(i int, params ...types.Value) (*ee.Result, error) {
	if i < 0 || i >= len(c.stmts) {
		return nil, fmt.Errorf("pe: %s declares %d statements, no statement %d", c.ectx.SP, len(c.stmts), i)
	}
	p := types.Row(params)
	if b := c.part.eng.boundary; b != nil {
		p = b.Cross(p)
	}
	return c.part.exec.Exec(c.stmts[i], p, c.ectx)
}

// SetResult records the result set returned to the caller of
// Engine.Call. It copies the rows, so an Exec result may be passed.
func (c *ProcCtx) SetResult(res *ee.Result) {
	if res == nil {
		return
	}
	cp := res.Clone()
	c.result = &Result{Columns: cp.Columns, Rows: cp.Rows}
}

// Abort returns an error that aborts the TE with a descriptive reason;
// sugar for fmt.Errorf with a stable prefix the tests can match.
func (c *ProcCtx) Abort(format string, args ...any) error {
	return fmt.Errorf("abort: "+format, args...)
}
