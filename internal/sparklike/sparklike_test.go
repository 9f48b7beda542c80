package sparklike

import (
	"sort"
	"testing"

	"sstore/internal/types"
)

func row(vs ...int64) types.Row {
	r := make(types.Row, len(vs))
	for i, v := range vs {
		r[i] = types.NewInt(v)
	}
	return r
}

func sortedInts(rows []types.Row, col int) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[col].Int()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestParallelizeCollect(t *testing.T) {
	ctx := NewContext(4)
	var rows []types.Row
	for i := int64(0); i < 10; i++ {
		rows = append(rows, row(i))
	}
	r := ctx.Parallelize(rows)
	if r.Count() != 10 {
		t.Fatalf("count = %d", r.Count())
	}
	got := sortedInts(r.Collect(), 0)
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("collect = %v", got)
		}
	}
}

func TestMapFilter(t *testing.T) {
	ctx := NewContext(3)
	var rows []types.Row
	for i := int64(0); i < 6; i++ {
		rows = append(rows, row(i))
	}
	r := ctx.Parallelize(rows)
	doubled := ctx.Map(r, func(x types.Row) types.Row { return row(x[0].Int() * 2) })
	if got := sortedInts(doubled.Collect(), 0); got[5] != 10 {
		t.Errorf("map = %v", got)
	}
	// Input untouched (immutability).
	if got := sortedInts(r.Collect(), 0); got[5] != 5 {
		t.Errorf("input mutated: %v", got)
	}
	even := ctx.Filter(r, func(x types.Row) bool { return x[0].Int()%2 == 0 })
	if even.Count() != 3 {
		t.Errorf("filter count = %d", even.Count())
	}
}

func TestReduceByKey(t *testing.T) {
	ctx := NewContext(4)
	var rows []types.Row
	for i := int64(0); i < 100; i++ {
		rows = append(rows, row(i%5, 1)) // key, count
	}
	r := ctx.Parallelize(rows)
	counts := ctx.ReduceByKey(r,
		func(x types.Row) types.Value { return x[0] },
		func(a, b types.Row) types.Row { return row(a[0].Int(), a[1].Int()+b[1].Int()) },
	)
	if counts.Count() != 5 {
		t.Fatalf("groups = %d", counts.Count())
	}
	for _, g := range counts.Collect() {
		if g[1].Int() != 20 {
			t.Errorf("key %d count = %d, want 20", g[0].Int(), g[1].Int())
		}
	}
}

func TestUnionAndLookup(t *testing.T) {
	ctx := NewContext(2)
	a := ctx.Parallelize([]types.Row{row(1), row(2)})
	b := ctx.Parallelize([]types.Row{row(3)})
	u := ctx.Union(a, b)
	if u.Count() != 3 {
		t.Errorf("union count = %d", u.Count())
	}
	hits := u.Lookup(0, types.NewInt(2))
	if len(hits) != 1 {
		t.Errorf("lookup = %v", hits)
	}
}

// TestUpdateStateByKeyCounting folds six micro-batches into keyed
// state, one UpdateStateByKey per batch, as a Spark Streaming job does.
func TestUpdateStateByKeyCounting(t *testing.T) {
	ctx := NewContext(2)
	state := ctx.Empty()
	for b := 0; b < 6; b++ {
		batch := ctx.Parallelize([]types.Row{row(int64(b % 2)), row(7)})
		state = UpdateStateByKey(ctx, state, batch, 0, func(existing, incoming types.Row) types.Row {
			if existing == nil {
				return row(incoming[0].Int(), 1)
			}
			return row(existing[0].Int(), existing[1].Int()+1)
		})
	}
	byKey := make(map[int64]int64)
	for _, r := range state.Collect() {
		byKey[r[0].Int()] = r[1].Int()
	}
	if byKey[0] != 3 || byKey[1] != 3 || byKey[7] != 6 {
		t.Errorf("state = %v", byKey)
	}
}
