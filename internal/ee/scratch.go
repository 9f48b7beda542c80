package ee

import (
	"sstore/internal/index"
	"sstore/internal/types"
)

// Stmt is a declared statement: SQL text a stored procedure lists with
// its definition, compiled once against the executor's catalog, the way
// H-Store precompiles a procedure's statements into the catalog (§3.1).
// InvalidatePlans recompiles every declared statement, so DDL and
// maintained-aggregate registration reach it like any cached plan.
type Stmt struct {
	text string
	p    *prepared
	err  error // recompilation failure, reported by every run
}

// maxScratchValues bounds what a statement's scratch keeps between
// runs: a run that needed more (a large scan's output, many groups)
// leaves its buffers to the garbage collector instead of pinning them
// for the life of the plan.
const maxScratchValues = 1 << 12

// scratch is one statement run's working memory. Every compiled
// statement owns one, reused run after run by whichever transaction
// execution claims it (see prepared.claim); a run that cannot claim it
// works on a fresh one. Nothing in it ever reaches storage: rows handed
// to Table.Insert are allocated per row, because the table keeps them.
type scratch struct {
	// running marks a run in progress on this scratch, so a re-entrant
	// run (an EE trigger re-running the statement that fired it) falls
	// back to fresh scratch instead of overwriting it.
	running  bool
	params   []types.Value // the run's parameters, copied from the caller
	env      evalEnv
	key      index.Key   // UPDATE/DELETE probe key
	tids     []uint64    // UPDATE/DELETE matches, collected before mutating
	vals     types.Row   // INSERT … VALUES evaluation row (column-list inserts)
	inserted []types.Row // INSERT: the fresh rows, between evaluation and insert
	sel      selScratch
	res      Result
}

// selScratch is a SELECT run's working memory: the output tail, the
// aggregation sink, and the rows the run builds.
type selScratch struct {
	out       output
	agg       aggSink
	key       index.Key   // base-table probe key
	synthetic types.Row   // maintained aggregates' group row
	joined    []types.Row // per join step, the outer row extended by the inner
}

// setParams copies the caller's parameters into the scratch, so the
// caller's slice never escapes (variadic arguments stay on the stack).
func (sc *scratch) setParams(params []types.Value) {
	sc.params = append(sc.params[:0], params...)
	sc.env = evalEnv{params: sc.params}
}

// trim lets go of the buffers a large run grew past what the scratch
// keeps between runs (see maxScratchValues). The output arena and the
// aggregation groups trim themselves as their run ends.
func (sc *scratch) trim() {
	if cap(sc.tids) > maxScratchValues {
		sc.tids = nil
	}
	if cap(sc.inserted) > maxScratchValues {
		sc.inserted = nil
	}
}

// dropInserted forgets the rows an INSERT handed to its table.
func (sc *scratch) dropInserted() {
	clear(sc.inserted)
	sc.inserted = sc.inserted[:0]
}

// claim hands ctx the statement's own scratch when it is free or
// already ctx's from an earlier run in the same transaction execution
// and not mid-run. A claim lasts until ctx is Reset (keep) or until the
// run ends (!keep); in between, other executions — a concurrent wave
// member — get nil and run on fresh scratch, so a kept result stays
// valid until the claiming execution runs the statement again.
func (p *prepared) claim(ctx *ExecCtx, keep bool) *scratch {
	if p.owner.Load() != ctx {
		if !p.owner.CompareAndSwap(nil, ctx) {
			return nil
		}
		if keep {
			ctx.claims = append(ctx.claims, p)
		} else {
			p.scoped = true
		}
	} else if p.sc.running {
		return nil
	}
	p.sc.running = true
	return &p.sc
}

// done ends a run on the statement's own scratch; a claim taken only
// for this run is released.
func (p *prepared) done() {
	p.sc.running = false
	if p.scoped {
		p.scoped = false
		p.owner.Store(nil)
	}
}

// releaseClaims hands back every scratch ctx claimed; Reset calls it
// when the transaction execution ends.
func (ctx *ExecCtx) releaseClaims() {
	for i, p := range ctx.claims {
		p.owner.Store(nil)
		ctx.claims[i] = nil
	}
	ctx.claims = ctx.claims[:0]
}

// Clone copies a result into fresh memory that the caller may retain:
// the Columns, the row slice, and every row's values (one backing
// array, each row capped so an append cannot reach its neighbour).
func (r *Result) Clone() *Result {
	out := &Result{RowsAffected: r.RowsAffected}
	if r.Columns != nil {
		out.Columns = append([]string(nil), r.Columns...)
	}
	if len(r.Rows) == 0 {
		return out
	}
	n := 0
	for _, row := range r.Rows {
		n += len(row)
	}
	vals := make([]types.Value, n)
	out.Rows = make([]types.Row, len(r.Rows))
	off := 0
	for i, row := range r.Rows {
		end := off + copy(vals[off:], row)
		out.Rows[i] = vals[off:end:end]
		off = end
	}
	return out
}
