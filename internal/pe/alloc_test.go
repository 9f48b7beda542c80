package pe

import (
	"runtime"
	"testing"

	"sstore/internal/ee"
	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/workflow"
)

// The //sstore:allocgate markers below pair with //sstore:nomalloc
// annotations; the allocgate analyzer fails the build if either side
// exists without the other.

//sstore:allocgate deque.pushBack
//sstore:allocgate deque.pushFront
//sstore:allocgate deque.popFront
func TestDequeOpsAllocFree(t *testing.T) {
	var d deque
	// Grow once to steady-state capacity; the gate measures the ring
	// operations, not the amortized growth.
	for i := 0; i < 16; i++ {
		d.pushBack(&task{})
	}
	for d.len() > 0 {
		d.popFront()
	}
	probe := &task{}
	if n := testing.AllocsPerRun(1000, func() {
		d.pushBack(probe)
		d.pushFront(probe)
		d.popFront()
		d.popFront()
	}); n != 0 {
		t.Fatalf("deque ops allocate %v/op at steady state; the scheduler queues every TE through them", n)
	}
}

// TestTaskPoolSteadyState: the task pool and the per-partition free
// lists make the per-TE struct traffic allocation-free once warm
// (ISSUE 8 layer 2). No allocgate marker — sync.Pool internals are not
// //sstore:nomalloc territory — but the behavior is load-bearing: every
// queued TE passes through getTask/putTask.
func TestTaskPoolSteadyState(t *testing.T) {
	putTask(getTask()) // warm the per-P pool cache
	if n := testing.AllocsPerRun(1000, func() {
		putTask(getTask())
	}); n != 0 {
		t.Fatalf("steady-state task get/put allocates %v/op", n)
	}
	p := &partition{}
	tx := p.beginTxn()
	_ = tx.Commit()
	p.recycleTxn(tx)
	pc := p.getProcCtx()
	p.recycleProcCtx(pc)
	ec := p.getECtx()
	p.recycleECtx(ec)
	if n := testing.AllocsPerRun(1000, func() {
		tx := p.beginTxn()
		_ = tx.Commit()
		p.recycleTxn(tx)
		p.recycleProcCtx(p.getProcCtx())
		p.recycleECtx(p.getECtx())
	}); n != 0 {
		t.Fatalf("steady-state txn/ctx recycling allocates %v/op", n)
	}
}

//sstore:allocgate conflictsAny
func TestConflictOpsAllocFree(t *testing.T) {
	accs := []*ee.AccessSet{
		ee.NewAccessSet([]string{"a"}, []string{"b"}),
		ee.NewAccessSet(nil, []string{"c"}),
	}
	clash := ee.NewAccessSet(nil, []string{"b"})
	clear := ee.NewAccessSet([]string{"d"}, []string{"e"})
	if n := testing.AllocsPerRun(1000, func() {
		if !conflictsAny(accs, clash) || conflictsAny(accs, clear) {
			t.Fatal("conflict answers changed")
		}
	}); n != 0 {
		t.Fatalf("conflictsAny allocates %v/op; the dispatcher runs it per queued task", n)
	}
}

// TestIngestSteadyMallocsBounded bounds heap allocations per batch end
// to end at steady state: a two-row batch through a border SP into a
// full 512-row sliding window. Some allocation is by design, so this
// is a ceiling, not zero: the four rows the stream and the window keep,
// the batch's own structures in Engine.ingest and the copy Query
// returns keep it near 9.4 on a 2-vCPU x86-64 host (statements run on
// their compiled scratch; pooled tasks, contexts and version chains,
// and the stream GC's table-owned victim list allocate nothing). The
// bound of 11 fails on any new per-batch allocation that is not a
// stored row.
func TestIngestSteadyMallocsBounded(t *testing.T) {
	eng, err := NewEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, ddl := range []string{
		"CREATE STREAM al_in (v BIGINT)",
		"CREATE WINDOW al_win (v BIGINT) SIZE 512 SLIDE 1",
	} {
		if err := eng.ExecDDL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	err = eng.RegisterProc(&StoredProc{Name: "AlFeed", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO al_win SELECT v FROM al_in")
		return err
	}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workflow.New("alloc-feed", []workflow.Node{{SP: "AlFeed", Input: "al_in"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.DeployWorkflow(w); err != nil {
		t.Fatal(err)
	}

	rows := []types.Row{{types.NewInt(1)}, {types.NewInt(-1)}}
	ingest := func(first, count int64) {
		for id := first; id < first+count; id++ {
			if err := eng.IngestSync("al_in", &stream.Batch{ID: id, Rows: rows}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm-up fills the window (so slides start evicting, the steady
	// state) and lets the pools reach their working set.
	const n, warm = 500, 850
	ingest(1, warm)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ingest(warm+1, n)
	runtime.ReadMemStats(&m1)
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	perBatch := float64(m1.Mallocs-m0.Mallocs) / n
	t.Logf("steady ingest: %.1f mallocs/batch", perBatch)
	if perBatch >= 11 {
		t.Fatalf("steady ingest allocates %.1f/batch, want < 11", perBatch)
	}
}
