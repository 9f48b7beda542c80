package storage

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sstore/internal/index"
	"sstore/internal/types"
)

// TestSnapshotRoundTripProperty: for random table contents (including
// deletions, updates, and staged window rows), encode→restore yields a
// table observably identical to the original.
func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := int(opsRaw%300) + 20
		schema := types.MustSchema(
			types.Column{Name: "k", Kind: types.KindInt},
			types.Column{Name: "s", Kind: types.KindText},
		)
		src := NewTable("t", KindStream, schema)
		_ = src.AddIndex(index.NewHashIndex("k_idx", []int{0}, false))
		var tids []uint64
		for i := 0; i < ops; i++ {
			switch rng.Intn(4) {
			case 0, 1:
				res, err := src.Insert(types.Row{
					types.NewInt(rng.Int63n(50)),
					types.NewText("v"),
				}, rng.Int63n(5)+1, nil)
				if err != nil {
					return false
				}
				tids = append(tids, res.TID)
			case 2:
				if len(tids) > 0 {
					i := rng.Intn(len(tids))
					_, _ = src.Delete(tids[i], nil)
					tids = append(tids[:i], tids[i+1:]...)
				}
			case 3:
				if len(tids) > 0 {
					tid := tids[rng.Intn(len(tids))]
					_ = src.Update(tid, types.Row{
						types.NewInt(rng.Int63n(50)),
						types.NewText("u"),
					}, nil)
				}
			}
		}
		img := EncodeTable(nil, src)
		dst := NewTable("t", KindStream, schema)
		_ = dst.AddIndex(index.NewHashIndex("k_idx", []int{0}, false))
		if _, err := RestoreTable(dst, img); err != nil {
			return false
		}
		if dst.Len() != src.Len() {
			return false
		}
		// Same rows in the same scan order, with the same metadata.
		type entry struct {
			meta TupleMeta
			row  string
		}
		collect := func(tbl *Table) []entry {
			var out []entry
			tbl.ScanAll(func(meta TupleMeta, row types.Row) bool {
				out = append(out, entry{meta: meta, row: row.String()})
				return true
			})
			return out
		}
		a, b := collect(src), collect(dst)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		// Index rebuilt correctly: probe a few keys.
		for k := int64(0); k < 50; k += 7 {
			key := index.Key{types.NewInt(k)}
			if len(src.IndexOn([]int{0}).Lookup(key)) != len(dst.IndexOn([]int{0}).Lookup(key)) {
				return false
			}
		}
		// Batch structure preserved.
		pa, pb := PendingBatches(src), PendingBatches(dst)
		if len(pa) != len(pb) {
			return false
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotWindowRoundTripProperty checks window tables: staged
// flags and scalar slide state survive the round trip, and the
// restored window continues sliding identically to the original.
func TestSnapshotWindowRoundTripProperty(t *testing.T) {
	f := func(seed int64, sizeRaw, slideRaw uint8, nRaw uint16) bool {
		size := int64(sizeRaw%12) + 1
		slide := int64(slideRaw)%size + 1
		n := int(nRaw % 200)
		schema := types.MustSchema(types.Column{Name: "v", Kind: types.KindInt})
		src, err := NewWindowTable("w", schema, WindowSpec{Size: size, Slide: slide})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if _, err := src.Insert(types.Row{types.NewInt(int64(i))}, 0, nil); err != nil {
				return false
			}
		}
		img := EncodeTable(nil, src)
		dst, _ := NewWindowTable("w", schema, WindowSpec{Size: size, Slide: slide})
		if _, err := RestoreTable(dst, img); err != nil {
			return false
		}
		if dst.ActiveLen() != src.ActiveLen() || dst.Window().StagedCount() != src.Window().StagedCount() {
			return false
		}
		if dst.Window().Slides() != src.Window().Slides() {
			return false
		}
		// Both windows evolve identically for the next few inserts.
		for i := 0; i < 10; i++ {
			v := types.Row{types.NewInt(int64(1000 + i))}
			ra, ea := src.Insert(v.Clone(), 0, nil)
			rb, eb := dst.Insert(v.Clone(), 0, nil)
			if (ea == nil) != (eb == nil) || ra.Slid != rb.Slid {
				return false
			}
			if src.ActiveLen() != dst.ActiveLen() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotUnknownFlagRejected: the flag byte after the TID counter
// is 0, 2 or 3; any other value — 1 included — fails the restore.
func TestSnapshotUnknownFlagRejected(t *testing.T) {
	src, _ := NewWindowTable("w", winSchema(), WindowSpec{Size: 2, Slide: 1})
	src.Insert(winRow(1, 1), 0, nil)
	img := EncodeTable(nil, src)
	off := 1 + len("w") + len(binary.AppendUvarint(nil, src.nextTID))
	if img[off] != 2 {
		t.Fatalf("window flag = %d, want 2", img[off])
	}
	for _, flag := range []byte{1, 4, 255} {
		bad := append([]byte(nil), img...)
		bad[off] = flag
		dst, _ := NewWindowTable("w", winSchema(), WindowSpec{Size: 2, Slide: 1})
		if _, err := RestoreTable(dst, bad); err == nil {
			t.Errorf("flag %d decoded without error", flag)
		}
	}
}

// TestSnapshotAggregateRoundTrip: maintained accumulators — including
// an order-sensitive float sum — come back bit-for-bit from a window
// image, and a window restored mid-rescan-debt behaves correctly.
func TestSnapshotAggregateRoundTrip(t *testing.T) {
	schema := types.MustSchema(
		types.Column{Name: "ts", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
	)
	src, _ := NewWindowTable("w", schema, WindowSpec{Size: 4, Slide: 2})
	src.MaintainAggregate(AggSum, 1)
	src.MaintainAggregate(AggMin, 1)
	src.MaintainAggregate(AggCount, AggStar)
	// Floats chosen so incremental add/subtract drifts from a fresh
	// recompute: the snapshot must carry the live accumulator.
	vals := []float64{0.1, 0.2, 0.3, 1e16, -1e16, 0.7, 0.15, 2.5, 0.05}
	for i, f := range vals {
		src.Insert(types.Row{types.NewInt(int64(i)), types.NewFloat(f)}, 0, nil)
	}
	img := EncodeTable(nil, src)

	dst, _ := NewWindowTable("w", schema, WindowSpec{Size: 4, Slide: 2})
	dst.MaintainAggregate(AggSum, 1)
	dst.MaintainAggregate(AggMin, 1)
	dst.MaintainAggregate(AggCount, AggStar)
	if _, err := RestoreTable(dst, img); err != nil {
		t.Fatal(err)
	}
	for _, a := range src.MaintainedAggregates() {
		want, _ := src.MaintainedAggregate(a.Fn(), a.Col())
		got, ok := dst.MaintainedAggregate(a.Fn(), a.Col())
		if !ok {
			t.Fatalf("%s(%d) not maintained after restore", a.Fn(), a.Col())
		}
		if !got.Equal(want) {
			t.Errorf("restored %s = %v, want %v", a.Fn(), got, want)
		}
	}
	// Both windows evolve identically afterwards.
	for i := 9; i < 14; i++ {
		f := float64(i) * 1.5
		r1, _ := src.Insert(types.Row{types.NewInt(int64(i)), types.NewFloat(f)}, 0, nil)
		r2, _ := dst.Insert(types.Row{types.NewInt(int64(i)), types.NewFloat(f)}, 0, nil)
		if r1.Slid != r2.Slid {
			t.Fatalf("insert %d: slid %v vs %v", i, r1.Slid, r2.Slid)
		}
	}
	want, _ := src.MaintainedAggregate(AggSum, 1)
	got, _ := dst.MaintainedAggregate(AggSum, 1)
	if !got.Equal(want) {
		t.Errorf("post-restore evolution SUM = %v, want %v", got, want)
	}
}

// TestSnapshotHugeAggregateCountRejected: a corrupted aggregate-count
// varint must fail decode cleanly, not reach the allocator.
func TestSnapshotHugeAggregateCountRejected(t *testing.T) {
	src, _ := NewWindowTable("w", winSchema(), WindowSpec{Size: 2, Slide: 1})
	src.MaintainAggregate(AggSum, 1)
	src.Insert(winRow(1, 1), 0, nil)
	img := EncodeTable(nil, src)
	// The aggregate count follows name, nextTID, flag byte 2, two
	// scalar flag bytes, and the start/slides varints; locate it by
	// re-encoding a zero-aggregate twin and diffing lengths.
	twin, _ := NewWindowTable("w", winSchema(), WindowSpec{Size: 2, Slide: 1})
	twin.Insert(winRow(1, 1), 0, nil)
	base := EncodeTable(nil, twin)
	off := -1
	for i := range img {
		if i >= len(base) || img[i] != base[i] {
			off = i
			break
		}
	}
	if off < 0 {
		t.Fatal("could not locate aggregate section")
	}
	corrupt := append([]byte(nil), img[:off]...)
	corrupt = binary.AppendUvarint(corrupt, 1<<60) // absurd count
	corrupt = append(corrupt, img[off+1:]...)
	dst, _ := NewWindowTable("w", winSchema(), WindowSpec{Size: 2, Slide: 1})
	dst.MaintainAggregate(AggSum, 1)
	if _, err := RestoreTable(dst, corrupt); err == nil {
		t.Fatal("corrupted aggregate count decoded without error")
	}
}

// TestSnapshotCarriesDisorderFlag: rows come back in TID order, and
// restore re-derives disorder only from the active rows in that order.
// UPDATEs that move tuples' time column forward re-stage them out of
// time order, which no restored row shows — so the window image must
// carry the flag itself.
func TestSnapshotCarriesDisorderFlag(t *testing.T) {
	spec := WindowSpec{TimeBased: true, Size: 10, Slide: 5, TimeColumn: 0}
	src, _ := NewWindowTable("w", winSchema(), spec)
	var tids []uint64
	for ts := int64(0); ts < 3; ts++ {
		res, err := src.Insert(winRow(ts, ts), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, res.TID)
	}
	// Both rewrites land past the window's end [0,10) and re-stage, the
	// later TID with the earlier time: staged TID order is no longer
	// time order.
	if err := src.Update(tids[1], winRow(30, 30), nil); err != nil {
		t.Fatal(err)
	}
	if err := src.Update(tids[2], winRow(17, 17), nil); err != nil {
		t.Fatal(err)
	}
	if !src.window.timeDisorder || src.window.staged.Len() != 2 {
		t.Fatalf("test setup: disorder %v, %d staged; want set, 2", src.window.timeDisorder, src.window.staged.Len())
	}
	img := EncodeTable(nil, src)

	dst, _ := NewWindowTable("w", winSchema(), spec)
	if _, err := RestoreTable(dst, img); err != nil {
		t.Fatal(err)
	}
	if !dst.window.timeDisorder {
		t.Fatal("restored window lost the time-disorder flag")
	}
	// And the sweep works post-restore: sliding to [10,20) must
	// activate ts=17 even though it is staged behind ts=30, which a
	// front-pop drain would stop at.
	if _, err := dst.Insert(winRow(18, 18), 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := activeValues(dst); !reflect.DeepEqual(got, []int64{17, 18}) {
		t.Errorf("window content after post-restore slide = %v, want [17 18]", got)
	}
}
