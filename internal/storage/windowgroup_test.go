package storage

import (
	"testing"

	"sstore/internal/types"
)

// groupWindow builds a tuple window (k BIGINT, v BIGINT, f DOUBLE) of
// the given size, slide 1, with COUNT(*) and SUM(v) maintained per k.
func groupWindow(t *testing.T, size int64) *Table {
	t.Helper()
	schema, err := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWindowTable("w", schema, WindowSpec{Size: size, Slide: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []AggFunc{AggCount, AggSum} {
		col := 1
		if fn == AggCount {
			col = AggStar
		}
		if err := w.MaintainAggregate(fn, col, 0); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func groupRow(k, v int64) types.Row {
	return types.Row{types.NewInt(k), types.NewInt(v), types.NewFloat(0)}
}

// groupsByKey reads the maintained groups into key → (count, sum).
func groupsByKey(w *Table) map[int64][2]int64 {
	g := w.GroupedAggregates([]int{0})
	cnt, sum := g.Call(AggCount, AggStar), g.Call(AggSum, 1)
	out := make(map[int64][2]int64, g.Len())
	for i := 0; i < g.Len(); i++ {
		out[g.Key(i)[0].Int()] = [2]int64{g.Value(i, cnt).Int(), g.Value(i, sum).Int()}
	}
	return out
}

// The //sstore:allocgate markers pair with the //sstore:nomalloc fold
// path in windowgroup.go.

//sstore:allocgate WindowGroups.hash
//sstore:allocgate WindowGroups.find
//sstore:allocgate WindowGroups.add
//sstore:allocgate WindowGroups.remove
//sstore:allocgate WindowGroups.fold
//sstore:allocgate WindowGroups.sameKey
//sstore:allocgate WindowGroups.drop
func TestWindowGroupedAggAllocFree(t *testing.T) {
	w := groupWindow(t, 100)
	for i := int64(0); i < 100; i++ {
		if _, err := w.Insert(groupRow(i%4, i), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if g := w.GroupedAggregates([]int{0}); g.Len() != 4 {
		t.Fatalf("%d groups over a full window of 4 keys, want 4", g.Len())
	}
	// A warm slide of a full window whose keys all exist: the oldest
	// row's fold-out and the newest row's fold-in — exactly what a
	// slide calls — touch only existing groups.
	oldRow, newRow := groupRow(1, 5), groupRow(2, 7)
	g := w.GroupedAggregates([]int{0})
	if n := testing.AllocsPerRun(1000, func() {
		w.windowAggRemove(oldRow)
		w.windowAggAdd(newRow)
		w.windowAggRemove(newRow)
		w.windowAggAdd(oldRow)
		if !g.sameKey(oldRow, oldRow) {
			t.Fatal("sameKey broke")
		}
	}); n != 0 {
		t.Fatalf("warm grouped slide allocates %v/op; every windowed vote pays it", n)
	}

	// Emptying a group unlinks it without allocating.
	const singles = 2000
	drain := groupWindow(t, singles)
	for i := int64(0); i < singles; i++ {
		if _, err := drain.Insert(groupRow(1000+i, i), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	next := int64(0)
	if n := testing.AllocsPerRun(singles-2, func() {
		drain.windowAggRemove(groupRow(1000+next, next))
		next++
	}); n != 0 {
		t.Fatalf("dropping an emptied group allocates %v/op", n)
	}
}

// TestWindowGroupedAggTracksSlides: per-key counts and sums follow
// activations and expiries, an emptied group disappears and reappears,
// an UPDATE of the key column moves a row between groups, and Truncate
// drops every group but keeps the registration.
func TestWindowGroupedAggTracksSlides(t *testing.T) {
	w := groupWindow(t, 3)
	for _, r := range [][2]int64{{1, 10}, {2, 20}, {1, 30}} {
		if _, err := w.Insert(groupRow(r[0], r[1]), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	check := func(want map[int64][2]int64) {
		t.Helper()
		got := groupsByKey(w)
		if len(got) != len(want) {
			t.Fatalf("groups %v, want %v", got, want)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("groups %v, want %v", got, want)
			}
		}
	}
	check(map[int64][2]int64{1: {2, 40}, 2: {1, 20}})
	// Slide: (1,10) expires, (3,5) activates.
	if _, err := w.Insert(groupRow(3, 5), 0, nil); err != nil {
		t.Fatal(err)
	}
	check(map[int64][2]int64{1: {1, 30}, 2: {1, 20}, 3: {1, 5}})
	// (2,20) expires: group 2 empties and goes away.
	if _, err := w.Insert(groupRow(3, 6), 0, nil); err != nil {
		t.Fatal(err)
	}
	check(map[int64][2]int64{1: {1, 30}, 3: {2, 11}})
	// Group 2 reappears.
	if _, err := w.Insert(groupRow(2, 1), 0, nil); err != nil {
		t.Fatal(err)
	}
	check(map[int64][2]int64{3: {2, 11}, 2: {1, 1}})
	// Rewrite the key column of the (2,1) row: it moves to group 3.
	var tid uint64
	w.Scan(func(m TupleMeta, r types.Row) bool {
		if r[0].Int() == 2 {
			tid = m.TID
		}
		return true
	})
	if err := w.Update(tid, groupRow(3, 1), nil); err != nil {
		t.Fatal(err)
	}
	check(map[int64][2]int64{3: {3, 12}})
	w.Truncate()
	check(map[int64][2]int64{})
	if w.GroupedAggregates([]int{0}).Call(AggSum, 1) < 0 {
		t.Fatal("Truncate dropped the registration")
	}
}

func TestWindowGroupedAggRegistration(t *testing.T) {
	w := groupWindow(t, 3)
	for _, tc := range []struct {
		name string
		fn   AggFunc
		col  int
		keys []int
	}{
		{"float sum", AggSum, 2, []int{0}},
		{"float key", AggCount, AggStar, []int{2}},
		{"grouped min", AggMin, 1, []int{0}},
		{"grouped avg", AggAvg, 1, []int{0}},
		{"sum star", AggSum, AggStar, []int{0}},
		{"key out of range", AggCount, AggStar, []int{7}},
	} {
		if err := w.MaintainAggregate(tc.fn, tc.col, tc.keys...); err == nil {
			t.Errorf("%s: registered, want an error", tc.name)
		}
	}
	if w.MaintainsAggregate(AggCount, AggStar) || w.MaintainsAggregate(AggSum, 1) {
		t.Error("a grouped registration must not count as a scalar one")
	}
	if w.GroupedAggregates([]int{1}) != nil || w.GroupedAggregates([]int{0, 1}) != nil {
		t.Error("a key set must match exactly")
	}
	// Registering under a populated window initializes from its rows.
	for _, r := range [][2]int64{{1, 10}, {2, 20}, {1, 30}} {
		if _, err := w.Insert(groupRow(r[0], r[1]), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.MaintainAggregate(AggCount, 1, 0); err != nil {
		t.Fatal(err)
	}
	g := w.GroupedAggregates([]int{0})
	c := g.Call(AggCount, 1)
	for i := 0; i < g.Len(); i++ {
		want := map[int64]int64{1: 2, 2: 1}[g.Key(i)[0].Int()]
		if got := g.Value(i, c).Int(); got != want {
			t.Errorf("COUNT(v) of key %v = %d, want %d", g.Key(i), got, want)
		}
	}
}
