package storage

import (
	"fmt"

	"sstore/internal/types"
)

// Grouped maintained aggregates: the per-key form of the window
// statistics of §3.2.2 and §4.3. A GROUP BY over a window otherwise
// rescans and re-groups every active row on each read; here each key
// set keeps one accumulator per group, folded as rows activate and
// expire, so a slide costs one hash lookup per key set and a grouped
// read costs O(groups).
//
// Only COUNT and integer SUM are grouped. Their deltas are exact, so an
// abort needs no captured copy: physical undo folds the restored rows
// back through add and remove and lands on the pre-TE accumulators.
// (A float SUM is order-sensitive, which is why scalar accumulators are
// captured by WindowMark instead; grouped registration refuses it.)
// Checkpoints do not encode groups either: row restore rebuilds them.

// WindowGroups is the maintained state of one GROUP BY key set of a
// window table: the aggregates registered under those keys and one
// accumulator group per distinct key among the active rows.
type WindowGroups struct {
	keys  []int       // group key column ordinals, GROUP BY order
	calls []groupCall // registration order

	index map[uint64]*aggGroup // key hash → collision chain
	// groups lists the live groups. Its order depends only on the
	// sequence of folds, never on map iteration; readers must still
	// impose their own order (a swap-remove reorders it).
	groups []*aggGroup
}

// groupCall names one grouped aggregate: COUNT over a column or
// AggStar, or SUM over an integer column.
type groupCall struct {
	fn  AggFunc
	col int
}

// aggGroup is one key's accumulators.
type aggGroup struct {
	key  types.Row
	rows int64      // active rows carrying this key
	acc  []groupAcc // parallel to WindowGroups.calls
	pos  int        // index in WindowGroups.groups
	next *aggGroup  // next group in the same hash chain
}

// groupAcc is one grouped COUNT or SUM.
type groupAcc struct {
	n   int64 // non-null arguments (every row for COUNT(*))
	sum int64
}

// Len returns the number of groups, one per distinct key among the
// active rows.
func (g *WindowGroups) Len() int { return len(g.groups) }

// Key returns group i's key values; the row must not be mutated.
func (g *WindowGroups) Key(i int) types.Row { return g.groups[i].key }

// Call returns the index of the (fn, col) aggregate under these keys,
// or -1 when it is not registered.
func (g *WindowGroups) Call(fn AggFunc, col int) int {
	for i, c := range g.calls {
		if c.fn == fn && c.col == col {
			return i
		}
	}
	return -1
}

// Value returns aggregate call's current value in group i: COUNT is
// never NULL, SUM is NULL when no argument in the group is.
func (g *WindowGroups) Value(i, call int) types.Value {
	a := g.groups[i].acc[call]
	if g.calls[call].fn == AggCount {
		return types.NewInt(a.n)
	}
	if a.n == 0 {
		return types.Null
	}
	return types.NewInt(a.sum)
}

// hash combines the key columns' hashes the way index.HashKey combines
// a composite key's.
//
//sstore:nomalloc
func (g *WindowGroups) hash(row types.Row) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range g.keys {
		h ^= row[c].Hash()
		h *= 1099511628211
	}
	return h
}

// find returns the group whose key equals row's key columns.
//
//sstore:nomalloc
func (g *WindowGroups) find(row types.Row, h uint64) *aggGroup {
	for grp := g.index[h]; grp != nil; grp = grp.next {
		match := true
		for i, c := range g.keys {
			if !grp.key[i].Equal(row[c]) {
				match = false
				break
			}
		}
		if match {
			return grp
		}
	}
	return nil
}

// add folds a row entering the visible window into its group, opening
// the group when the key is new.
//
//sstore:nomalloc
func (g *WindowGroups) add(row types.Row) {
	h := g.hash(row)
	grp := g.find(row, h)
	if grp == nil {
		//lint:allow hotalloc -- a key not among the active rows opens its group once; a warm slide over existing keys never gets here
		grp = g.open(row, h)
	}
	grp.rows++
	g.fold(grp, row, 1)
}

// remove folds a row leaving the visible window out of its group,
// dropping the group with its last row.
//
//sstore:nomalloc
func (g *WindowGroups) remove(row types.Row) {
	h := g.hash(row)
	grp := g.find(row, h)
	if grp == nil {
		return // unreachable: every active row was folded in by add
	}
	g.fold(grp, row, -1)
	grp.rows--
	if grp.rows == 0 {
		g.drop(grp, h)
	}
}

// fold adds (sign 1) or subtracts (sign -1) row's arguments.
//
//sstore:nomalloc
func (g *WindowGroups) fold(grp *aggGroup, row types.Row, sign int64) {
	for i, c := range g.calls {
		if c.col == AggStar {
			grp.acc[i].n += sign
			continue
		}
		v := row[c.col]
		if v.IsNull() {
			continue
		}
		grp.acc[i].n += sign
		if c.fn == AggSum {
			grp.acc[i].sum += sign * v.Int()
		}
	}
}

// sameKey reports whether two rows carry equal key columns.
//
//sstore:nomalloc
func (g *WindowGroups) sameKey(a, b types.Row) bool {
	for _, c := range g.keys {
		if !a[c].Equal(b[c]) {
			return false
		}
	}
	return true
}

// update re-folds a rewritten visible row. A row that keeps its key
// stays in its group, which therefore never empties and reopens.
func (g *WindowGroups) update(oldRow, newRow types.Row) {
	if !g.sameKey(oldRow, newRow) {
		g.remove(oldRow)
		g.add(newRow)
		return
	}
	if grp := g.find(oldRow, g.hash(oldRow)); grp != nil {
		g.fold(grp, oldRow, -1)
		g.fold(grp, newRow, 1)
	}
}

// open creates the group for row's key.
func (g *WindowGroups) open(row types.Row, h uint64) *aggGroup {
	key := make(types.Row, len(g.keys))
	for i, c := range g.keys {
		key[i] = row[c]
	}
	grp := &aggGroup{key: key, acc: make([]groupAcc, len(g.calls)), pos: len(g.groups), next: g.index[h]}
	g.index[h] = grp
	g.groups = append(g.groups, grp)
	return grp
}

// drop unlinks an emptied group from its chain and swap-removes it
// from the group list.
//
//sstore:nomalloc
func (g *WindowGroups) drop(grp *aggGroup, h uint64) {
	if head := g.index[h]; head == grp {
		if grp.next == nil {
			delete(g.index, h)
		} else {
			g.index[h] = grp.next
		}
	} else {
		for p := head; p != nil; p = p.next {
			if p.next == grp {
				p.next = grp.next
				break
			}
		}
	}
	last := len(g.groups) - 1
	moved := g.groups[last]
	g.groups[grp.pos] = moved
	moved.pos = grp.pos
	g.groups[last] = nil
	g.groups = g.groups[:last]
}

// reset drops every group (Truncate); the registrations survive.
func (g *WindowGroups) reset() {
	clear(g.index)
	clear(g.groups)
	g.groups = g.groups[:0]
}

// maintainGrouped registers (fn, col) under the key columns, creating
// the key set on first use, and rebuilds the key set's groups from the
// active rows.
func (t *Table) maintainGrouped(fn AggFunc, col int, keys []int) error {
	switch {
	case fn == AggSum && col == AggStar:
		return fmt.Errorf("storage: sum(*) is not maintainable")
	case fn == AggSum && t.schema.Column(col).Kind != types.KindInt:
		// A float sum is not exact under add/remove, and grouped
		// accumulators rely on exact deltas to undo an abort.
		return fmt.Errorf("storage: grouped sum over %s column %s; only BIGINT sums are grouped", t.schema.Column(col).Kind, t.schema.Column(col).Name)
	case fn != AggCount && fn != AggSum:
		return fmt.Errorf("storage: grouped %s is not maintainable, only count and sum", fn)
	}
	for _, k := range keys {
		if k < 0 || k >= t.schema.Len() {
			return fmt.Errorf("storage: window %s group key column %d out of range", t.name, k)
		}
		// Keys that are Equal but not identical (+0 and -0) would let a
		// group report a different representative than a scan does.
		if t.schema.Column(k).Kind == types.KindFloat {
			return fmt.Errorf("storage: window %s cannot group by float column %s", t.name, t.schema.Column(k).Name)
		}
	}
	w := t.window
	g := w.groupsFor(keys)
	if g == nil {
		g = &WindowGroups{keys: append([]int(nil), keys...), index: make(map[uint64]*aggGroup)}
		w.grouped = append(w.grouped, g)
	}
	if g.Call(fn, col) >= 0 {
		return nil
	}
	g.calls = append(g.calls, groupCall{fn: fn, col: col})
	g.reset()
	for i := 0; i < w.active.Len(); i++ {
		if r, ok := t.rows[w.active.At(i)]; ok {
			g.add(r.data)
		}
	}
	return nil
}

// groupsFor returns the key set registered under exactly these key
// columns, in this order, or nil.
func (w *WindowState) groupsFor(keys []int) *WindowGroups {
	for _, g := range w.grouped {
		if len(g.keys) != len(keys) {
			continue
		}
		same := true
		for i, k := range keys {
			if g.keys[i] != k {
				same = false
				break
			}
		}
		if same {
			return g
		}
	}
	return nil
}

// GroupedAggregates returns the maintained key set grouped by exactly
// these key columns, or nil when none is registered.
func (t *Table) GroupedAggregates(keys []int) *WindowGroups {
	if t.window == nil {
		return nil
	}
	return t.window.groupsFor(keys)
}
