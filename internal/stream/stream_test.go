package stream

import (
	"sync"
	"testing"

	"sstore/internal/types"
)

func row(v int64) types.Row { return types.Row{types.NewInt(v)} }

func TestAssemblerBatching(t *testing.T) {
	a, err := NewAssembler(3)
	if err != nil {
		t.Fatal(err)
	}
	var batches []*Batch
	for i := int64(0); i < 7; i++ {
		if b := a.Push(row(i)); b != nil {
			batches = append(batches, b)
		}
	}
	if len(batches) != 2 {
		t.Fatalf("batches = %d", len(batches))
	}
	if batches[0].ID != 1 || batches[1].ID != 2 {
		t.Errorf("ids = %d, %d", batches[0].ID, batches[1].ID)
	}
	if len(batches[0].Rows) != 3 || batches[0].Rows[0][0].Int() != 0 {
		t.Errorf("batch 1 = %v", batches[0].Rows)
	}
	tail := a.Flush()
	if tail == nil || tail.ID != 3 || len(tail.Rows) != 1 {
		t.Fatalf("flush = %+v", tail)
	}
	if a.Flush() != nil {
		t.Error("second flush should be nil")
	}
}

func TestAssemblerSizeOne(t *testing.T) {
	a, _ := NewAssembler(1)
	for i := int64(1); i <= 3; i++ {
		b := a.Push(row(i))
		if b == nil || b.ID != i || len(b.Rows) != 1 {
			t.Fatalf("push %d = %+v", i, b)
		}
	}
}

func TestAssemblerRejectsBadSize(t *testing.T) {
	if _, err := NewAssembler(0); err == nil {
		t.Error("size 0 should be rejected")
	}
	if _, err := NewAssembler(-1); err == nil {
		t.Error("negative size should be rejected")
	}
}

func TestDedup(t *testing.T) {
	d := NewDedup()
	if !d.Admit("s", 1) {
		t.Error("first batch rejected")
	}
	if d.Admit("s", 1) {
		t.Error("duplicate admitted")
	}
	if !d.Admit("s", 2) {
		t.Error("next batch rejected")
	}
	if d.Admit("s", 1) {
		t.Error("old batch admitted")
	}
	if !d.Admit("other", 1) {
		t.Error("streams must be independent")
	}
	if d.High("s") != 2 {
		t.Errorf("high = %d", d.High("s"))
	}
}

func TestDedupConcurrent(t *testing.T) {
	d := NewDedup()
	var wg sync.WaitGroup
	admitted := make([]int64, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var n int64
			for i := int64(1); i <= 1000; i++ {
				if d.Admit("s", i) {
					n++
				}
			}
			admitted[g] = n
		}(g)
	}
	wg.Wait()
	var total int64
	for _, n := range admitted {
		total += n
	}
	if total != 1000 {
		t.Errorf("total admissions = %d, want exactly 1000", total)
	}
}

func TestDedupRelease(t *testing.T) {
	d := NewDedup()
	if !d.Admit("s", 1) || !d.Admit("s", 2) {
		t.Fatal("admissions rejected")
	}
	// Releasing the most recent admission restores the previous high.
	d.Release("s", 2)
	if d.High("s") != 1 {
		t.Errorf("high after release = %d, want 1", d.High("s"))
	}
	if !d.Admit("s", 2) {
		t.Error("released batch should be admittable again")
	}
	// Releasing a non-latest ID is a no-op: the ledger cannot regress
	// below a later admission.
	d.Release("s", 1)
	if d.High("s") != 2 {
		t.Errorf("high after stale release = %d, want 2", d.High("s"))
	}
	// Releasing an unknown stream is a no-op.
	d.Release("other", 7)
	if d.High("other") != 0 {
		t.Errorf("high on untouched stream = %d", d.High("other"))
	}
}
