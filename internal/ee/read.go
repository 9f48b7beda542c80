package ee

import (
	"errors"
	"fmt"
	"sort"

	"sstore/internal/sql"
	"sstore/internal/storage"
	"sstore/internal/types"
)

// This file is the snapshot read path's planner surface: statements
// classified as read-only compile into a ReadPlan that executes
// against any catalog — in particular the per-view resolved catalogs
// the partition engine builds from live tables and copy-on-write
// images — without touching an Executor's partition-confined state.

// ErrNotReadOnly is returned (wrapped) by CompileReadOnly for any
// statement that is not a SELECT; match with errors.Is.
var ErrNotReadOnly = errors.New("ee: statement is not read-only")

// Classify parses a statement and reports its coarse class: a
// read-only SELECT, DDL (CREATE ...), or neither (a write).
func Classify(text string) (readOnly, ddl bool, err error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return false, false, err
	}
	switch stmt.(type) {
	case *sql.Select:
		return true, false, nil
	case *sql.CreateTable, *sql.CreateWindow, *sql.CreateIndex:
		return false, true, nil
	default:
		return false, false, nil
	}
}

// MaintainedRef names one maintained window aggregate a ReadPlan is
// served from.
type MaintainedRef struct {
	Fn  storage.AggFunc
	Col int // column ordinal, or storage.AggStar
}

// ReadPlan is a compiled read-only statement. Plans are immutable
// after compilation and safe for concurrent Run calls.
type ReadPlan struct {
	sel    *selectPlan
	names  []string // the plan's tables by position: base, then each join's inner
	tables []string // referenced tables, lower-case, base first, deduped
	sorted []string // same set in sorted order — the latch acquisition order
}

// CompileReadOnly parses and plans a read-only statement against the
// catalog's current schemas. Non-SELECT statements fail with an error
// matching ErrNotReadOnly.
func CompileReadOnly(text string, cat *storage.Catalog) (*ReadPlan, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	s, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("%w (%T)", ErrNotReadOnly, stmt)
	}
	plan, err := compileSelect(s, cat)
	if err != nil {
		return nil, err
	}
	if plan.groupKeys != nil {
		// A pinned view captures scalar accumulators only; its grouped
		// reads scan the view's resolved window instead.
		plan.maintained, plan.groupKeys = nil, nil
	}
	rp := &ReadPlan{sel: plan, names: selTables(plan)}
	seen := map[string]bool{}
	add := func(name string) {
		key := lowerName(name)
		if !seen[key] {
			seen[key] = true
			rp.tables = append(rp.tables, key)
		}
	}
	add(plan.baseTable)
	for _, j := range plan.joins {
		add(j.table)
	}
	rp.sorted = append([]string(nil), rp.tables...)
	sort.Strings(rp.sorted)
	return rp, nil
}

// Tables returns the referenced table names (lower-case, base table
// first).
func (p *ReadPlan) Tables() []string { return p.tables }

// TablesSorted returns the same names in sorted order. Callers that
// acquire per-table read latches while resolving a view MUST do so in
// this order: concurrent readers of overlapping table sets would
// otherwise form an acquisition cycle with the writer latches queued
// between them (an RWMutex with a pending writer blocks new readers).
func (p *ReadPlan) TablesSorted() []string { return p.sorted }

// Maintained reports whether the plan is served entirely from
// maintained window aggregates (detectMaintained matched at compile
// time), returning the window's name and the aggregate references in
// accumulator order.
func (p *ReadPlan) Maintained() (table string, refs []MaintainedRef, ok bool) {
	if p.sel.maintained == nil {
		return "", nil, false
	}
	refs = make([]MaintainedRef, len(p.sel.maintained))
	for i, m := range p.sel.maintained {
		refs[i] = MaintainedRef{Fn: m.fn, Col: m.col}
	}
	return lowerName(p.sel.baseTable), refs, true
}

// Run executes the plan against cat — typically a per-view catalog of
// resolved tables. Reads run with no owning stored procedure, so
// private windows are rejected like any ad-hoc access (§3.2.2). Plans
// served from maintained aggregates must use RunMaintained instead:
// reading accumulators off a shared table is not latch-safe. Each run
// works on fresh scratch, so the result is the caller's to retain.
func (p *ReadPlan) Run(cat *storage.Catalog, params []types.Value) (*Result, error) {
	if p.sel.maintained != nil {
		return nil, fmt.Errorf("ee: maintained-aggregate plan requires RunMaintained")
	}
	r := new(readRun)
	tables := r.tables[:0]
	for _, name := range p.names {
		t, err := cat.Get(name)
		if err != nil {
			return nil, err
		}
		if t.Kind() == storage.KindWindow && t.OwnerSP != "" {
			return nil, fmt.Errorf("ee: window %s is private to stored procedure %s (accessed from read view)", lowerName(name), t.OwnerSP)
		}
		tables = append(tables, t)
	}
	r.env.params = params
	res, err := p.sel.run(tables, &r.sc, &r.env)
	if err != nil {
		return nil, err
	}
	res.Columns = append([]string(nil), res.Columns...)
	return res, nil
}

// readRun is one snapshot read's working memory, allocated as one
// object: its scratch, environment, and room for the resolved tables
// of a plan with up to three joins.
type readRun struct {
	sc     selScratch
	env    evalEnv
	tables [4]*storage.Table
}

// RunMaintained serves a maintained-aggregate plan from captured
// accumulator values, one per Maintained() reference in order; the
// caller supplies the values a pinned view captured at its commit
// boundary.
func (p *ReadPlan) RunMaintained(vals []types.Value, params []types.Value) (*Result, error) {
	if p.sel.maintained == nil {
		return nil, fmt.Errorf("ee: plan is not served from maintained aggregates")
	}
	if len(vals) != len(p.sel.maintained) {
		return nil, fmt.Errorf("ee: maintained plan wants %d values, got %d", len(p.sel.maintained), len(vals))
	}
	limit, err := p.sel.resolveLimit(params)
	if err != nil {
		return nil, err
	}
	out := new(output)
	out.reset(p.sel, limit)
	if err := out.addGroup(&evalEnv{params: params, row: types.Row(vals)}); err != nil {
		return nil, err
	}
	res, err := out.result()
	if err != nil {
		return nil, err
	}
	res.Columns = append([]string(nil), res.Columns...)
	return res, nil
}
