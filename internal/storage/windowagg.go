package storage

import (
	"fmt"
	"strings"

	"sstore/internal/types"
)

// Maintained window aggregates (§3.2.2, §4.3): instead of recomputing
// COUNT/SUM/MIN/MAX/AVG with a scan every time a trigger TE reads the
// window, the statistic lives in window metadata and is updated
// incrementally as tuples activate and expire. Reads are O(1); the
// only non-constant upkeep is MIN/MAX recomputing after the current
// extremum expires, a rescan bounded by the window size.

// AggFunc identifies a maintainable aggregate function.
type AggFunc uint8

const (
	// AggCount maintains COUNT(col) (non-null rows) or COUNT(*).
	AggCount AggFunc = iota
	// AggSum maintains SUM(col) over a numeric column.
	AggSum
	// AggAvg maintains AVG(col) over a numeric column.
	AggAvg
	// AggMin maintains MIN(col).
	AggMin
	// AggMax maintains MAX(col).
	AggMax
)

// AggStar is the column ordinal standing for COUNT(*).
const AggStar = -1

// String returns the SQL name of the function.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// ParseAggFunc resolves a SQL aggregate name to its AggFunc.
func ParseAggFunc(name string) (AggFunc, error) {
	switch strings.ToLower(name) {
	case "count":
		return AggCount, nil
	case "sum":
		return AggSum, nil
	case "avg":
		return AggAvg, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	default:
		return 0, fmt.Errorf("storage: no maintainable aggregate %q", name)
	}
}

// aggState is the scalar accumulator of one maintained aggregate. It
// is a plain value type so WindowMark can snapshot it by copy and an
// abort can restore it exactly.
type aggState struct {
	n       int64 // contributing rows (non-null; every active row for COUNT(*))
	sumI    int64
	sumF    float64
	isFloat bool
	best    types.Value // current extremum for MIN/MAX
	bestN   int64       // multiplicity of best among active rows
	dirty   bool        // extremum expired; rescan before the next read
}

// WindowAggregate is one registered maintained aggregate of a window
// table.
type WindowAggregate struct {
	fn    AggFunc
	col   int // column ordinal, or AggStar
	state aggState
}

// Fn returns the aggregate function.
func (a *WindowAggregate) Fn() AggFunc { return a.fn }

// Col returns the aggregated column ordinal, or AggStar.
func (a *WindowAggregate) Col() int { return a.col }

// arg extracts the aggregated value from a row; COUNT(*) synthesizes a
// non-null marker.
func (a *WindowAggregate) arg(row types.Row) types.Value {
	if a.col == AggStar {
		return types.NewInt(1)
	}
	return row[a.col]
}

// add folds one activating row into the accumulator.
func (a *WindowAggregate) add(row types.Row) {
	v := a.arg(row)
	if v.IsNull() {
		return
	}
	a.state.n++
	switch a.fn {
	case AggSum, AggAvg:
		if a.state.isFloat {
			a.state.sumF += v.Float()
		} else {
			a.state.sumI += v.Int()
		}
	case AggMin, AggMax:
		if a.state.dirty {
			return // stale extremum; the pending rescan sees this row
		}
		if a.state.n == 1 {
			a.state.best, a.state.bestN = v, 1
			return
		}
		c, err := v.Compare(a.state.best)
		if err != nil {
			a.state.dirty = true
			return
		}
		switch {
		case c == 0:
			a.state.bestN++
		case (a.fn == AggMin) == (c < 0):
			a.state.best, a.state.bestN = v, 1
		}
	}
}

// remove folds one expiring row out of the accumulator.
func (a *WindowAggregate) remove(row types.Row) {
	v := a.arg(row)
	if v.IsNull() {
		return
	}
	a.state.n--
	switch a.fn {
	case AggSum, AggAvg:
		if a.state.isFloat {
			a.state.sumF -= v.Float()
		} else {
			a.state.sumI -= v.Int()
		}
	case AggMin, AggMax:
		if a.state.n == 0 {
			a.state.best, a.state.bestN, a.state.dirty = types.Null, 0, false
			return
		}
		if a.state.dirty {
			return
		}
		if c, err := v.Compare(a.state.best); err == nil && c == 0 {
			a.state.bestN--
			if a.state.bestN == 0 {
				// The extremum left the window: only a bounded rescan
				// of the remaining active rows can find the new one.
				// Defer it to the next read so a burst of expiries (or
				// an abort that rolls everything back) pays nothing.
				a.state.dirty = true
			}
		}
	}
}

// result returns the aggregate's current value; MIN/MAX must not be
// dirty (Table.MaintainedAggregate rescans first).
func (a *WindowAggregate) result() types.Value {
	if a.state.n == 0 {
		if a.fn == AggCount {
			return types.NewInt(0)
		}
		return types.Null
	}
	switch a.fn {
	case AggCount:
		return types.NewInt(a.state.n)
	case AggSum:
		if a.state.isFloat {
			return types.NewFloat(a.state.sumF)
		}
		return types.NewInt(a.state.sumI)
	case AggAvg:
		if a.state.isFloat {
			return types.NewFloat(a.state.sumF / float64(a.state.n))
		}
		return types.NewFloat(float64(a.state.sumI) / float64(a.state.n))
	default:
		return a.state.best
	}
}

// MaintainAggregate registers an incrementally maintained aggregate on
// a window table, initializing it from the currently active rows. With
// groupBy column ordinals it is maintained per key instead (COUNT and
// BIGINT SUM only; see WindowGroups). Registering the same (function,
// column, keys) twice is a no-op. Like DDL, registration is not
// transactional and is re-issued at boot; only scalar accumulator
// state is checkpointed.
func (t *Table) MaintainAggregate(fn AggFunc, col int, groupBy ...int) error {
	if t.window == nil {
		return fmt.Errorf("storage: %s is not a window table", t.name)
	}
	if col != AggStar && (col < 0 || col >= t.schema.Len()) {
		return fmt.Errorf("storage: window %s aggregate column %d out of range", t.name, col)
	}
	if len(groupBy) > 0 {
		return t.maintainGrouped(fn, col, groupBy)
	}
	if col == AggStar {
		if fn != AggCount {
			return fmt.Errorf("storage: %s(*) is not maintainable, only COUNT(*)", fn)
		}
	} else if fn == AggSum || fn == AggAvg {
		k := t.schema.Column(col).Kind
		if k != types.KindInt && k != types.KindFloat {
			return fmt.Errorf("storage: %s over non-numeric column %s", fn, t.schema.Column(col).Name)
		}
	}
	if t.findAggregate(fn, col) != nil {
		return nil
	}
	agg := &WindowAggregate{fn: fn, col: col}
	if col != AggStar && t.schema.Column(col).Kind == types.KindFloat {
		agg.state.isFloat = true
	}
	w := t.window
	for i := 0; i < w.active.Len(); i++ {
		if r, ok := t.rows[w.active.At(i)]; ok {
			agg.add(r.data)
		}
	}
	w.aggs = append(w.aggs, agg)
	return nil
}

func (t *Table) findAggregate(fn AggFunc, col int) *WindowAggregate {
	if t.window == nil {
		return nil
	}
	for _, a := range t.window.aggs {
		if a.fn == fn && a.col == col {
			return a
		}
	}
	return nil
}

// MaintainsAggregate reports whether the (function, column) aggregate
// is registered on this table.
func (t *Table) MaintainsAggregate(fn AggFunc, col int) bool {
	return t.findAggregate(fn, col) != nil
}

// MaintainedAggregate returns the stored value of a registered window
// aggregate. Reads are O(1) except when a MIN/MAX extremum expired
// since the last read, which triggers one rescan bounded by the
// current window size.
func (t *Table) MaintainedAggregate(fn AggFunc, col int) (types.Value, bool) {
	a := t.findAggregate(fn, col)
	if a == nil {
		return types.Null, false
	}
	if a.state.dirty {
		t.rescanAggregate(a)
	}
	return a.result(), true
}

// rescanAggregate recomputes a MIN/MAX extremum from the active rows.
func (t *Table) rescanAggregate(a *WindowAggregate) {
	a.state.best, a.state.bestN, a.state.dirty = types.Null, 0, false
	n := a.state.n
	a.state.n = 0
	w := t.window
	for i := 0; i < w.active.Len(); i++ {
		if r, ok := t.rows[w.active.At(i)]; ok {
			a.add(r.data)
		}
	}
	a.state.n = n
}

// MaintainedAggregates returns the registered aggregates in
// registration order; used by snapshotting.
func (t *Table) MaintainedAggregates() []*WindowAggregate {
	if t.window == nil {
		return nil
	}
	return t.window.aggs
}

// windowAggAdd folds a row entering the visible window into every
// maintained aggregate, scalar and grouped.
func (t *Table) windowAggAdd(row types.Row) {
	for _, a := range t.window.aggs {
		a.add(row)
	}
	for _, g := range t.window.grouped {
		g.add(row)
	}
}

// windowAggRemove folds a row leaving the visible window out of every
// maintained aggregate, scalar and grouped.
func (t *Table) windowAggRemove(row types.Row) {
	for _, a := range t.window.aggs {
		a.remove(row)
	}
	for _, g := range t.window.grouped {
		g.remove(row)
	}
}

// windowAggUpdate re-folds a rewritten visible row, skipping
// aggregates whose argument did not change — removing an unchanged
// extremum would spuriously dirty MIN/MAX and force a rescan.
func (t *Table) windowAggUpdate(oldRow, newRow types.Row) {
	for _, a := range t.window.aggs {
		ov, nv := a.arg(oldRow), a.arg(newRow)
		if ov.Equal(nv) || (ov.IsNull() && nv.IsNull()) {
			continue
		}
		a.remove(oldRow)
		a.add(newRow)
	}
	for _, g := range t.window.grouped {
		g.update(oldRow, newRow)
	}
}

// resetAggregates zeroes every accumulator and drops every group
// (Truncate); registrations survive, mirroring how schema survives a
// truncate.
func (w *WindowState) resetAggregates() {
	for _, a := range w.aggs {
		isFloat := a.state.isFloat
		a.state = aggState{isFloat: isFloat, best: types.Null}
	}
	for _, g := range w.grouped {
		g.reset()
	}
}
