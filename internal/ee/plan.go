package ee

import (
	"fmt"
	"slices"

	"sstore/internal/index"
	"sstore/internal/sql"
	"sstore/internal/storage"
	"sstore/internal/types"
)

// selectPlan is a compiled SELECT: an access path for the base table,
// optional index nested-loop joins, a residual filter, and either a
// plain projection or an aggregation, followed by sort and limit.
type selectPlan struct {
	baseTable string
	probe     *indexProbe // nil → full scan

	joins []joinStep

	filter compiledExpr // nil → no residual predicate

	agg *aggPlan // nil → plain projection

	// maintained, when non-nil, maps every aggregate call to a
	// maintained window aggregate (§4.3): run() reads the stored
	// accumulators instead of scanning, making trigger TEs O(1) in the
	// window size (O(groups) when grouped). Parallel to agg.calls.
	maintained []maintainedAggRef
	// groupKeys are the GROUP BY column ordinals of a grouped
	// maintained plan, whose accumulators are the window's per-key
	// groups under exactly these keys; nil for the single global group.
	groupKeys []int

	items    []compiledExpr // projection (over input or agg scope)
	colNames []string

	orderBy    []orderKey
	limit      int
	limitParam int // parameter index for LIMIT ?, or -1
}

// indexProbe is an equality probe of a base-table index whose key is
// computable before scanning (literals and parameters only).
type indexProbe struct {
	indexName string
	cols      []int
	keyExprs  []compiledExpr
}

// joinStep is one inner join executed as a nested loop, with an
// optional index probe on the inner table keyed by the rows built so
// far.
type joinStep struct {
	table string
	on    compiledExpr // residual join predicate (may be nil)
	// Optional index acceleration: probe inner index with keys
	// computed from the outer row.
	probe *joinProbe
	width int // inner schema width
}

type joinProbe struct {
	indexName string
	cols      []int
	keyExprs  []compiledExpr // evaluated against the outer row env
}

// aggPlan describes grouping and aggregate accumulation.
type aggPlan struct {
	groupBy  []compiledExpr
	calls    []*sql.FuncCall
	argExprs []compiledExpr // one per call; nil for COUNT(*)
	kinds    []aggKind      // one per call
	having   compiledExpr   // over the agg output scope; may be nil
}

// maintainedAggRef names one maintained window aggregate of the base
// table.
type maintainedAggRef struct {
	fn  storage.AggFunc
	col int
	// slot is the aggregate's index among the grouped key set's calls
	// (storage.WindowGroups.Call); registrations only append and
	// invalidate cached plans, so it stays valid for the plan's life.
	slot int
}

type orderKey struct {
	expr compiledExpr
	desc bool
	// preProjection marks keys evaluated against the input scope
	// (non-agg mode); otherwise the key runs over the agg output row.
	preProjection bool
}

// compileSelect builds a selectPlan against the catalog's current
// schemas.
func compileSelect(stmt *sql.Select, cat *storage.Catalog) (*selectPlan, error) {
	base, err := cat.Get(stmt.From.Name)
	if err != nil {
		return nil, err
	}
	sc := newScope()
	sc.addTable(stmt.From.Alias, base.Schema())

	p := &selectPlan{baseTable: stmt.From.Name, limit: stmt.Limit, limitParam: stmt.LimitParam}

	// Joins extend the scope left to right.
	for _, j := range stmt.Joins {
		inner, err := cat.Get(j.Table.Name)
		if err != nil {
			return nil, err
		}
		outerWidth := sc.width
		sc.addTable(j.Table.Alias, inner.Schema())
		step := joinStep{table: j.Table.Name, width: inner.Schema().Len()}
		probe, residual := extractJoinProbe(j.On, j.Table.Alias, inner, sc, outerWidth)
		step.probe = probe
		if residual != nil {
			on, err := compileExpr(residual, sc, nil)
			if err != nil {
				return nil, err
			}
			step.on = on
		}
		p.joins = append(p.joins, step)
	}

	// WHERE: peel off an index probe on the base table, compile the
	// rest as a filter.
	if stmt.Where != nil {
		probe, residual, err := extractIndexProbe(stmt.Where, stmt.From.Alias, base, sc)
		if err != nil {
			return nil, err
		}
		p.probe = probe
		if residual != nil {
			f, err := compileExpr(residual, sc, nil)
			if err != nil {
				return nil, err
			}
			p.filter = f
		}
	}

	// Expand stars.
	items := make([]sql.SelectItem, 0, len(stmt.Items))
	for _, it := range stmt.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		items = append(items, expandStar(stmt, cat)...)
	}

	// Aggregate mode?
	var aggCalls []*sql.FuncCall
	for _, it := range items {
		collectAggregates(it.Expr, &aggCalls)
	}
	if stmt.Having != nil {
		collectAggregates(stmt.Having, &aggCalls)
	}
	for _, ob := range stmt.OrderBy {
		collectAggregates(ob.Expr, &aggCalls)
	}
	if len(aggCalls) > 0 || len(stmt.GroupBy) > 0 {
		if err := p.compileAggregate(stmt, items, aggCalls, sc); err != nil {
			return nil, err
		}
		p.detectMaintained(stmt, base)
		return p, nil
	}

	// Plain projection.
	for _, it := range items {
		ce, err := compileExpr(it.Expr, sc, nil)
		if err != nil {
			return nil, err
		}
		p.items = append(p.items, ce)
		p.colNames = append(p.colNames, itemName(it))
	}
	for _, ob := range stmt.OrderBy {
		ce, err := compileOrderKey(ob.Expr, sc, items, p.items)
		if err != nil {
			return nil, err
		}
		p.orderBy = append(p.orderBy, orderKey{expr: ce, desc: ob.Desc, preProjection: true})
	}
	return p, nil
}

// expandStar lists all columns of the FROM and JOIN tables as items.
func expandStar(stmt *sql.Select, cat *storage.Catalog) []sql.SelectItem {
	var items []sql.SelectItem
	add := func(alias string, t *storage.Table) {
		for i := 0; i < t.Schema().Len(); i++ {
			name := t.Schema().Column(i).Name
			items = append(items, sql.SelectItem{
				Expr:  &sql.ColumnRef{Table: alias, Column: name},
				Alias: name,
			})
		}
	}
	if t, ok := cat.Lookup(stmt.From.Name); ok {
		add(stmt.From.Alias, t)
	}
	for _, j := range stmt.Joins {
		if t, ok := cat.Lookup(j.Table.Name); ok {
			add(j.Table.Alias, t)
		}
	}
	return items
}

// compileOrderKey compiles an ORDER BY expression; a bare column that
// matches a select alias refers to that item.
func compileOrderKey(e sql.Expr, sc *scope, items []sql.SelectItem, compiled []compiledExpr) (compiledExpr, error) {
	if ref, ok := e.(*sql.ColumnRef); ok && ref.Table == "" {
		if _, err := sc.resolve(ref); err != nil {
			for i, it := range items {
				if it.Alias == ref.Column {
					return compiled[i], nil
				}
			}
		}
	}
	return compileExpr(e, sc, nil)
}

// compileAggregate sets up aggregation: group-by keys and aggregate
// accumulators over the input scope, then items/having/order-by over a
// synthetic output scope of [groupVals..., aggVals...].
func (p *selectPlan) compileAggregate(stmt *sql.Select, items []sql.SelectItem, calls []*sql.FuncCall, sc *scope) error {
	agg := &aggPlan{}
	// Dedup aggregate calls by pointer.
	seen := make(map[*sql.FuncCall]bool)
	for _, c := range calls {
		if !seen[c] {
			seen[c] = true
			agg.calls = append(agg.calls, c)
		}
	}
	aggScope := newScope()
	aggSlots := make(map[*sql.FuncCall]int)

	for i, g := range stmt.GroupBy {
		ce, err := compileExpr(g, sc, nil)
		if err != nil {
			return err
		}
		agg.groupBy = append(agg.groupBy, ce)
		// Register the group-by column's names in the output scope.
		if ref, ok := g.(*sql.ColumnRef); ok {
			aggScope.slots[ref.Column] = i
			if ref.Table != "" {
				aggScope.slots[ref.Table+"."+ref.Column] = i
			}
		}
	}
	aggScope.width = len(stmt.GroupBy)
	for i, c := range agg.calls {
		aggSlots[c] = len(stmt.GroupBy) + i
		kind, err := aggKindOf(c)
		if err != nil {
			return err
		}
		agg.kinds = append(agg.kinds, kind)
		if c.Star {
			agg.argExprs = append(agg.argExprs, nil)
			continue
		}
		if len(c.Args) != 1 {
			return fmt.Errorf("ee: aggregate %s expects one argument", c.Name)
		}
		ce, err := compileExpr(c.Args[0], sc, nil)
		if err != nil {
			return err
		}
		agg.argExprs = append(agg.argExprs, ce)
	}
	aggScope.width += len(agg.calls)

	for _, it := range items {
		ce, err := compileExpr(it.Expr, aggScope, aggSlots)
		if err != nil {
			return err
		}
		p.items = append(p.items, ce)
		p.colNames = append(p.colNames, itemName(it))
	}
	if stmt.Having != nil {
		h, err := compileExpr(stmt.Having, aggScope, aggSlots)
		if err != nil {
			return err
		}
		agg.having = h
	}
	for _, ob := range stmt.OrderBy {
		ce, err := compileOrderKey(ob.Expr, aggScope, items, p.items)
		if err != nil {
			// Retry via aggSlots-aware compilation (aggregates in
			// ORDER BY).
			ce2, err2 := compileExpr(ob.Expr, aggScope, aggSlots)
			if err2 != nil {
				return err
			}
			ce = ce2
		}
		p.orderBy = append(p.orderBy, orderKey{expr: ce, desc: ob.Desc})
	}
	p.agg = agg
	return nil
}

// detectMaintained checks whether an aggregate plan can be served from
// the base window's maintained aggregates: an unfiltered, join-free
// aggregate over a window table whose every call is registered as
// maintained — ungrouped, or grouped by plain base-table columns under
// exactly those keys (see groupKeyOrdinals and orderCoversKeys).
// Registration invalidates plan caches, so a compile-time check stays
// correct for the plan's lifetime.
func (p *selectPlan) detectMaintained(stmt *sql.Select, base *storage.Table) {
	if base.Kind() != storage.KindWindow || base.Window() == nil {
		return
	}
	if p.probe != nil || p.filter != nil || len(p.joins) > 0 {
		return
	}
	var groups *storage.WindowGroups
	keys, ok := groupKeyOrdinals(stmt, base)
	if !ok {
		return
	}
	if len(keys) > 0 {
		if groups = base.GroupedAggregates(keys); groups == nil || !orderCoversKeys(stmt) {
			return
		}
	}
	refs := make([]maintainedAggRef, 0, len(p.agg.calls))
	for _, c := range p.agg.calls {
		if c.Distinct {
			return
		}
		fn, err := storage.ParseAggFunc(c.Name)
		if err != nil {
			return
		}
		col := storage.AggStar
		if c.Star {
			if fn != storage.AggCount {
				return
			}
		} else {
			if len(c.Args) != 1 {
				return
			}
			ord, ok := baseColumn(c.Args[0], stmt, base)
			if !ok {
				return
			}
			col = ord
		}
		ref := maintainedAggRef{fn: fn, col: col}
		if groups != nil {
			if ref.slot = groups.Call(fn, col); ref.slot < 0 {
				return
			}
		} else if !base.MaintainsAggregate(fn, col) {
			return
		}
		refs = append(refs, ref)
	}
	p.maintained, p.groupKeys = refs, keys
}

// baseColumn resolves a plain column reference of the FROM table to
// its ordinal.
func baseColumn(e sql.Expr, stmt *sql.Select, base *storage.Table) (int, bool) {
	ref, ok := e.(*sql.ColumnRef)
	if !ok || (ref.Table != "" && lowerName(ref.Table) != lowerName(stmt.From.Alias)) {
		return 0, false
	}
	return base.Schema().Index(ref.Column)
}

// groupKeyOrdinals returns the GROUP BY columns' ordinals; false when a
// key is anything but a plain base-table column.
func groupKeyOrdinals(stmt *sql.Select, base *storage.Table) ([]int, bool) {
	if len(stmt.GroupBy) == 0 {
		return nil, true
	}
	keys := make([]int, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		ord, ok := baseColumn(g, stmt, base)
		if !ok {
			return nil, false
		}
		keys[i] = ord
	}
	return keys, true
}

// orderCoversKeys reports whether ORDER BY names every GROUP BY key,
// directly or through a select alias of the key column. Distinct groups
// then never tie, so sorting the groups yields one order whatever order
// they arrive in: the stored groups' internal order, let alone Go map
// order, cannot reach a result, and the output equals the scan's.
func orderCoversKeys(stmt *sql.Select) bool {
	for _, g := range stmt.GroupBy {
		key := g.(*sql.ColumnRef)
		covered := false
		for _, ob := range stmt.OrderBy {
			if ref, ok := ob.Expr.(*sql.ColumnRef); ok && orderRefNamesKey(ref, key, stmt) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// orderRefNamesKey mirrors compileOrderKey's resolution: a name that
// is a group key resolves to it first; otherwise a bare name may be a
// select alias of that key column.
func orderRefNamesKey(ref, key *sql.ColumnRef, stmt *sql.Select) bool {
	if ref.Column == key.Column && (ref.Table == "" || key.Table == "" || ref.Table == key.Table) {
		return true
	}
	if ref.Table != "" {
		return false
	}
	for _, g := range stmt.GroupBy {
		if g.(*sql.ColumnRef).Column == ref.Column {
			return false // names another key
		}
	}
	for _, it := range stmt.Items {
		if it.Alias != ref.Column {
			continue
		}
		col, ok := it.Expr.(*sql.ColumnRef)
		return ok && col.Column == key.Column && (col.Table == "" || key.Table == "" || col.Table == key.Table)
	}
	return false
}

func itemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if ref, ok := it.Expr.(*sql.ColumnRef); ok {
		return ref.Column
	}
	if call, ok := it.Expr.(*sql.FuncCall); ok {
		return call.Name
	}
	return "expr"
}

// --- Index probe extraction ---

// conjuncts flattens an AND tree.
func conjuncts(e sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.Binary); ok && b.Op == sql.OpAnd {
		return append(conjuncts(b.Left), conjuncts(b.Right)...)
	}
	return []sql.Expr{e}
}

func joinConjuncts(parts []sql.Expr) sql.Expr {
	if len(parts) == 0 {
		return nil
	}
	e := parts[0]
	for _, p := range parts[1:] {
		e = &sql.Binary{Op: sql.OpAnd, Left: e, Right: p}
	}
	return e
}

// columnFree reports whether the expression references no columns, so
// its value is computable before the scan (literals, params,
// arithmetic over them).
func columnFree(e sql.Expr) bool {
	switch e := e.(type) {
	case *sql.Literal, *sql.Param:
		return true
	case *sql.Binary:
		return columnFree(e.Left) && columnFree(e.Right)
	case *sql.Unary:
		return columnFree(e.Operand)
	case *sql.FuncCall:
		for _, a := range e.Args {
			if !columnFree(a) {
				return false
			}
		}
		return !e.IsAggregate()
	default:
		return false
	}
}

// extractIndexProbe looks for `col = <column-free expr>` conjuncts that
// together cover an index of the base table, returning the probe and
// the residual predicate.
func extractIndexProbe(where sql.Expr, baseAlias string, t *storage.Table, sc *scope) (*indexProbe, sql.Expr, error) {
	parts := conjuncts(where)
	// Map column ordinal → (conjunct index, key expr).
	type candidate struct {
		part int
		expr sql.Expr
	}
	cands := make(map[int]candidate)
	for i, part := range parts {
		b, ok := part.(*sql.Binary)
		if !ok || b.Op != sql.OpEq {
			continue
		}
		ref, val := asColEq(b, baseAlias)
		if ref == nil {
			continue
		}
		ord, ok := t.Schema().Index(ref.Column)
		if !ok {
			continue
		}
		if _, dup := cands[ord]; !dup {
			cands[ord] = candidate{part: i, expr: val}
		}
	}
	if len(cands) == 0 {
		return nil, where, nil
	}
	// Find an index fully covered by candidate columns.
	for _, idx := range t.Indexes() {
		cols := idx.Columns()
		covered := true
		for _, c := range cols {
			if _, ok := cands[c]; !ok {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		probe := &indexProbe{indexName: idx.Name(), cols: cols}
		used := make(map[int]bool)
		for _, c := range cols {
			cand := cands[c]
			ce, err := compileExpr(cand.expr, newScope(), nil)
			if err != nil {
				return nil, nil, err
			}
			probe.keyExprs = append(probe.keyExprs, ce)
			used[cand.part] = true
		}
		var residual []sql.Expr
		for i, part := range parts {
			if !used[i] {
				residual = append(residual, part)
			}
		}
		return probe, joinConjuncts(residual), nil
	}
	return nil, where, nil
}

// asColEq matches `alias.col = expr` (either side) where expr is
// column-free, returning the column ref and the key expression.
func asColEq(b *sql.Binary, alias string) (*sql.ColumnRef, sql.Expr) {
	try := func(l, r sql.Expr) (*sql.ColumnRef, sql.Expr) {
		ref, ok := l.(*sql.ColumnRef)
		if !ok || (ref.Table != "" && ref.Table != alias) {
			return nil, nil
		}
		if !columnFree(r) {
			return nil, nil
		}
		return ref, r
	}
	if ref, val := try(b.Left, b.Right); ref != nil {
		return ref, val
	}
	return try(b.Right, b.Left)
}

// extractJoinProbe matches `inner.col = <expr over outer row>` equality
// conjuncts covering an inner-table index; key expressions are compiled
// against the combined scope but only read outer slots, so they can run
// per outer row.
func extractJoinProbe(on sql.Expr, innerAlias string, inner *storage.Table, sc *scope, outerWidth int) (*joinProbe, sql.Expr) {
	parts := conjuncts(on)
	type candidate struct {
		part int
		expr sql.Expr
	}
	cands := make(map[int]candidate)
	for i, part := range parts {
		b, ok := part.(*sql.Binary)
		if !ok || b.Op != sql.OpEq {
			continue
		}
		for _, ord := range []struct{ l, r sql.Expr }{{b.Left, b.Right}, {b.Right, b.Left}} {
			ref, ok := ord.l.(*sql.ColumnRef)
			if !ok || ref.Table != innerAlias {
				continue
			}
			colOrd, ok := inner.Schema().Index(ref.Column)
			if !ok {
				continue
			}
			if refsOnlyOuter(ord.r, innerAlias) {
				if _, dup := cands[colOrd]; !dup {
					cands[colOrd] = candidate{part: i, expr: ord.r}
				}
				break
			}
		}
	}
	if len(cands) == 0 {
		return nil, on
	}
	for _, idx := range inner.Indexes() {
		cols := idx.Columns()
		covered := true
		for _, c := range cols {
			if _, ok := cands[c]; !ok {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		probe := &joinProbe{indexName: idx.Name(), cols: cols}
		used := make(map[int]bool)
		ok := true
		for _, c := range cols {
			cand := cands[c]
			ce, err := compileExpr(cand.expr, sc, nil)
			if err != nil {
				ok = false
				break
			}
			probe.keyExprs = append(probe.keyExprs, ce)
			used[cand.part] = true
		}
		if !ok {
			continue
		}
		var residual []sql.Expr
		for i, part := range parts {
			if !used[i] {
				residual = append(residual, part)
			}
		}
		return probe, joinConjuncts(residual)
	}
	return nil, on
}

// refsOnlyOuter reports whether the expression references no columns of
// the inner alias (it may reference outer columns).
func refsOnlyOuter(e sql.Expr, innerAlias string) bool {
	switch e := e.(type) {
	case *sql.Literal, *sql.Param:
		return true
	case *sql.ColumnRef:
		return e.Table != "" && e.Table != innerAlias
	case *sql.Binary:
		return refsOnlyOuter(e.Left, innerAlias) && refsOnlyOuter(e.Right, innerAlias)
	case *sql.Unary:
		return refsOnlyOuter(e.Operand, innerAlias)
	case *sql.FuncCall:
		for _, a := range e.Args {
			if !refsOnlyOuter(a, innerAlias) {
				return false
			}
		}
		return !e.IsAggregate()
	default:
		return false
	}
}

// --- Execution ---

// run executes the plan over tables — the base table, then each join's
// inner table, as the caller resolved them — on sc, with the run's
// parameters in env. The result lives in sc and stays valid until sc's
// next run.
func (p *selectPlan) run(tables []*storage.Table, sc *selScratch, env *evalEnv) (*Result, error) {
	base := tables[0]
	if p.maintained != nil {
		return p.runMaintained(base, sc, env)
	}
	limit, err := p.resolveLimit(env.params)
	if err != nil {
		return nil, err
	}
	sc.out.reset(p, limit)
	if p.agg != nil {
		sc.agg.reset(p)
	}
	if len(sc.joined) < len(p.joins) {
		sc.joined = make([]types.Row, len(p.joins))
	}

	var inputErr error
	emit := func(row types.Row) bool {
		ok, err := p.applyJoins(tables, sc, env, 0, row)
		if err != nil {
			if err != errLimitReached {
				inputErr = err
			}
			return false
		}
		return ok
	}

	if p.probe != nil {
		key := sc.key[:0]
		for _, ke := range p.probe.keyExprs {
			v, err := ke(env)
			if err != nil {
				return nil, err
			}
			key = append(key, v)
		}
		sc.key = key
		if idx := findIndex(base, p.probe.indexName); idx != nil {
			for _, tid := range idx.Lookup(key) {
				meta, row, ok := base.Get(tid)
				if !ok || meta.Staged {
					continue
				}
				if !emit(row) {
					break
				}
			}
		} else {
			// Versioned shims carry no indexes: re-apply the probe's key
			// equalities (lifted out of the residual filter at plan time)
			// over a scan instead.
			base.Scan(func(_ storage.TupleMeta, row types.Row) bool {
				for i, c := range p.probe.cols {
					if !row[c].Equal(key[i]) {
						return true
					}
				}
				return emit(row)
			})
		}
	} else {
		base.Scan(func(_ storage.TupleMeta, row types.Row) bool {
			return emit(row)
		})
	}
	if inputErr != nil {
		return nil, inputErr
	}
	if p.agg != nil {
		if err := sc.agg.finish(sc, env); err != nil {
			return nil, err
		}
	}
	return sc.out.result()
}

func findIndex(t *storage.Table, name string) index.Index {
	for _, idx := range t.Indexes() {
		if idx.Name() == name {
			return idx
		}
	}
	return nil
}

// consume feeds one accepted input row to the sink: the aggregation,
// or the output tail of a plain projection.
func (p *selectPlan) consume(sc *selScratch, env *evalEnv) error {
	if p.agg != nil {
		return sc.agg.add(env)
	}
	if err := sc.out.add(env); err != nil {
		return err
	}
	if sc.out.full() {
		return errLimitReached
	}
	return nil
}

// applyJoins recursively extends row through each join step, consuming
// fully joined rows. It returns false to stop the outer scan (limit
// reached in non-sorted plans is not short-circuited; this path only
// reports errors). Step i builds its joined rows in sc.joined[i]: no
// sink retains env.row, so one buffer per step serves every inner row.
func (p *selectPlan) applyJoins(tables []*storage.Table, sc *selScratch, env *evalEnv, step int, row types.Row) (bool, error) {
	if step == len(p.joins) {
		env.row = row
		if p.filter != nil {
			ok, err := boolOf(p.filter, env)
			if err != nil {
				return false, err
			}
			if !ok {
				return true, nil
			}
		}
		if err := p.consume(sc, env); err != nil {
			return false, err
		}
		return true, nil
	}
	js := p.joins[step]
	inner := tables[1+step]
	tryRow := func(innerRow types.Row) (bool, error) {
		combined := append(append(sc.joined[step][:0], row...), innerRow...)
		sc.joined[step] = combined
		if js.on != nil {
			env.row = combined
			ok, err := boolOf(js.on, env)
			if err != nil {
				return false, err
			}
			if !ok {
				return true, nil
			}
		}
		return p.applyJoins(tables, sc, env, step+1, combined)
	}
	if js.probe != nil {
		env.row = row
		key := make(index.Key, len(js.probe.keyExprs))
		for i, ke := range js.probe.keyExprs {
			v, err := ke(env)
			if err != nil {
				return false, err
			}
			key[i] = v
		}
		idx := findIndex(inner, js.probe.indexName)
		if idx == nil {
			// Versioned shim: filtered scan re-applying the probe keys.
			var loopErr error
			cont := true
			inner.Scan(func(_ storage.TupleMeta, innerRow types.Row) bool {
				for i, c := range js.probe.cols {
					if !innerRow[c].Equal(key[i]) {
						return true
					}
				}
				cont, loopErr = tryRow(innerRow)
				return cont && loopErr == nil
			})
			return cont, loopErr
		}
		for _, tid := range idx.Lookup(key) {
			meta, innerRow, ok := inner.Get(tid)
			if !ok || meta.Staged {
				continue
			}
			cont, err := tryRow(innerRow)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	var loopErr error
	cont := true
	inner.Scan(func(_ storage.TupleMeta, innerRow types.Row) bool {
		cont, loopErr = tryRow(innerRow)
		return cont && loopErr == nil
	})
	return cont, loopErr
}

// runMaintained serves an aggregate plan from the window's maintained
// accumulators instead of scanning: one synthetic row per group —
// [key values..., aggregate values...], or just the aggregate values
// for the single global group — fed through the same HAVING,
// projection, ORDER BY and LIMIT tail as the scanning sink. The read
// is O(1) in the window size, O(groups) when grouped: the §4.3 point
// that window statistics live in table metadata, extended to the
// aggregates themselves.
func (p *selectPlan) runMaintained(base *storage.Table, sc *selScratch, env *evalEnv) (*Result, error) {
	limit, err := p.resolveLimit(env.params)
	if err != nil {
		return nil, err
	}
	out := &sc.out
	out.reset(p, limit)
	nk := len(p.groupKeys)
	synthetic := sc.syntheticRow(nk + len(p.maintained))
	env.row = synthetic
	if p.groupKeys == nil {
		for i, m := range p.maintained {
			v, ok := base.MaintainedAggregate(m.fn, m.col)
			if !ok {
				return nil, fmt.Errorf("ee: window %s no longer maintains %s", base.Name(), m.fn)
			}
			synthetic[i] = v
		}
		if err := out.addGroup(env); err != nil {
			return nil, err
		}
		return out.result()
	}
	groups := base.GroupedAggregates(p.groupKeys)
	if groups == nil {
		return nil, fmt.Errorf("ee: window %s no longer maintains grouped aggregates", base.Name())
	}
	for i := 0; i < groups.Len(); i++ {
		copy(synthetic, groups.Key(i))
		for j, m := range p.maintained {
			synthetic[nk+j] = groups.Value(i, m.slot)
		}
		if err := out.addGroup(env); err != nil {
			return nil, err
		}
	}
	return out.result()
}

// syntheticRow returns the scratch's group row, n values wide.
func (sc *selScratch) syntheticRow(n int) types.Row {
	if cap(sc.synthetic) < n {
		sc.synthetic = make(types.Row, n)
	}
	sc.synthetic = sc.synthetic[:n]
	return sc.synthetic
}

// resolveLimit returns the effective LIMIT (-1 = none), reading the
// parameter slot if the statement used LIMIT ?.
func (p *selectPlan) resolveLimit(params []types.Value) (int, error) {
	limit := p.limit
	if p.limitParam >= 0 {
		if p.limitParam >= len(params) {
			return 0, fmt.Errorf("ee: missing parameter %d for LIMIT", p.limitParam+1)
		}
		v := params[p.limitParam]
		if v.Kind() != types.KindInt || v.Int() < 0 {
			return 0, fmt.Errorf("ee: LIMIT parameter must be a non-negative integer, got %s", v)
		}
		limit = int(v.Int())
	}
	return limit, nil
}

// output is the tail every SELECT plan ends in: projection of each
// accepted row, ORDER BY keys, then sort and LIMIT into the Result. It
// never retains env.row, so callers may refill one scratch row. The
// projected rows and their sort keys are cut from one value arena that
// the next run overwrites — so rows a LIMIT drops cost nothing — and
// the Result is the output's own.
type output struct {
	p       *selectPlan
	limit   int // -1 = none
	rows    []sortable
	vals    []types.Value // arena: each accepted row's values, then its keys
	res     Result
	resRows []types.Row
}

type sortable struct {
	row  types.Row
	keys types.Row
}

// reset re-arms the output for one run of p.
func (o *output) reset(p *selectPlan, limit int) {
	o.p, o.limit = p, limit
	o.vals, o.rows = o.vals[:0], o.rows[:0]
}

// add projects env.row through the select items and evaluates its
// ORDER BY keys.
func (o *output) add(env *evalEnv) error {
	p := o.p
	ni := len(p.items)
	w := ni + len(p.orderBy)
	n := len(o.vals)
	if n+w > cap(o.vals) {
		// Start a larger arena; rows already cut keep the old one.
		o.vals, n = make([]types.Value, 0, max(2*cap(o.vals), 8*w)), 0
	}
	o.vals = o.vals[:n+w]
	out := o.vals[n : n+ni : n+ni]
	for i, item := range p.items {
		v, err := item(env)
		if err != nil {
			return err
		}
		out[i] = v
	}
	var keys types.Row
	if len(p.orderBy) > 0 {
		keys = o.vals[n+ni : n+w : n+w]
		for i, ob := range p.orderBy {
			v, err := ob.expr(env)
			if err != nil {
				return err
			}
			keys[i] = v
		}
	}
	o.rows = append(o.rows, sortable{row: out, keys: keys})
	return nil
}

// addGroup is add for one aggregate group's synthetic row (group key
// values, then aggregate values), after HAVING.
func (o *output) addGroup(env *evalEnv) error {
	if h := o.p.agg.having; h != nil {
		ok, err := boolOf(h, env)
		if err != nil || !ok {
			return err
		}
	}
	return o.add(env)
}

// full reports whether an unordered plan has its LIMIT rows already:
// rows arrive in their final order, so the scan can stop.
func (o *output) full() bool {
	return len(o.p.orderBy) == 0 && o.limit >= 0 && len(o.rows) >= o.limit
}

// result sorts, applies LIMIT and fills the output's Result, whose
// Columns are the plan's own read-only names.
func (o *output) result() (*Result, error) {
	rows := o.rows
	if len(o.p.orderBy) > 0 {
		if err := sortRows(rows, o.p.orderBy); err != nil {
			return nil, err
		}
	}
	if o.limit >= 0 && len(rows) > o.limit {
		rows = rows[:o.limit]
	}
	o.res = Result{Columns: o.p.colNames}
	if len(rows) > 0 {
		o.resRows = o.resRows[:0]
		for _, r := range rows {
			o.resRows = append(o.resRows, r.row)
		}
		o.res.Rows = o.resRows
	}
	if cap(o.vals) > maxScratchValues {
		// The Result keeps what it needs; the scratch lets go.
		o.vals, o.rows, o.resRows = nil, nil, nil
	}
	return &o.res, nil
}

// aggSink groups input rows and accumulates their aggregates. Groups
// live in one slice in first-seen order, chained per key hash; the
// slice, every group's key and accumulators, and the hash heads are
// re-armed in place by the next run.
type aggSink struct {
	p      *selectPlan
	heads  map[uint64]int32 // key hash → newest group with that hash
	groups []aggGroup
	key    types.Row // each input row's group key is built here
}

type aggGroup struct {
	key  types.Row
	accs []aggregator
	next int32 // older group with the same key hash; -1 ends the chain
}

// maxScratchGroups bounds the groups an aggregation sink keeps between
// runs (see maxScratchValues).
const maxScratchGroups = 1 << 10

// reset re-arms the sink for one run of p.
func (s *aggSink) reset(p *selectPlan) {
	s.p = p
	if s.heads == nil {
		s.heads = make(map[uint64]int32)
	} else {
		clear(s.heads)
	}
	s.groups = s.groups[:0]
	if n := len(p.agg.groupBy); cap(s.key) < n {
		s.key = make(types.Row, n)
	} else {
		s.key = s.key[:n]
	}
}

// newGroup opens a group for key, reusing a previous run's group slot
// and its buffers when there is one.
func (s *aggSink) newGroup(key types.Row) *aggGroup {
	n := len(s.groups)
	if n < cap(s.groups) {
		s.groups = s.groups[:n+1]
	} else {
		s.groups = append(s.groups, aggGroup{})
	}
	g := &s.groups[n]
	g.key = append(g.key[:0], key...)
	kinds := s.p.agg.kinds
	if cap(g.accs) < len(kinds) {
		g.accs = make([]aggregator, len(kinds))
	}
	g.accs = g.accs[:len(kinds)]
	for i, k := range kinds {
		g.accs[i].reset(k)
	}
	g.next = -1
	return g
}

// add folds one input row into its group.
func (s *aggSink) add(env *evalEnv) error {
	agg := s.p.agg
	for i, ge := range agg.groupBy {
		v, err := ge(env)
		if err != nil {
			return err
		}
		s.key[i] = v
	}
	h := index.HashKey(index.Key(s.key))
	var g *aggGroup
	head, chained := s.heads[h]
	if chained {
		for c := head; c >= 0; c = s.groups[c].next {
			if s.groups[c].key.Equal(s.key) {
				g = &s.groups[c]
				break
			}
		}
	}
	if g == nil {
		g = s.newGroup(s.key)
		if chained {
			g.next = head
		}
		s.heads[h] = int32(len(s.groups) - 1)
	}
	for i := range g.accs {
		v := types.NewInt(1) // COUNT(*): any non-null marker
		if ae := agg.argExprs[i]; ae != nil {
			var err error
			if v, err = ae(env); err != nil {
				return err
			}
		}
		if err := g.accs[i].add(v); err != nil {
			return err
		}
	}
	return nil
}

// finish feeds every group's synthetic row through the output tail.
func (s *aggSink) finish(sc *selScratch, env *evalEnv) error {
	agg := s.p.agg
	// Global aggregate over zero rows still yields one group.
	if len(s.groups) == 0 && len(agg.groupBy) == 0 {
		s.newGroup(nil)
	}
	synthetic := sc.syntheticRow(len(agg.groupBy) + len(agg.calls))
	env.row = synthetic
	for i := range s.groups {
		g := &s.groups[i]
		n := copy(synthetic, g.key)
		for j := range g.accs {
			a := &g.accs[j]
			synthetic[n+j] = a.result()
			if len(a.seen) > maxScratchValues {
				a.seen = nil // a large COUNT(DISTINCT) set is not kept for the next run
			}
		}
		if err := sc.out.addGroup(env); err != nil {
			return err
		}
	}
	if cap(s.groups) > maxScratchGroups {
		s.heads, s.groups = nil, nil
	}
	return nil
}

// errLimitReached is an internal sentinel that stops the scan early; it
// is not surfaced to callers.
var errLimitReached = fmt.Errorf("ee: limit reached")

// sortRows stably sorts by the precomputed keys with the requested
// directions: rows with equal keys keep their input order.
func sortRows(rows []sortable, keys []orderKey) error {
	var sortErr error
	slices.SortStableFunc(rows, func(a, b sortable) int {
		if sortErr != nil {
			return 0
		}
		for k := range keys {
			c, err := a.keys[k].Compare(b.keys[k])
			if err != nil {
				sortErr = err
				return 0
			}
			if c != 0 {
				if keys[k].desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	return sortErr
}
