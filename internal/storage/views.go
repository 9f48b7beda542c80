package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sstore/internal/types"
)

// This file is the snapshot read path's storage half: per-partition
// read views that observe a transaction-consistent commit boundary
// without entering the partition's scheduler queue.
//
// The protocol is multi-versioning at row granularity with epoch-based
// reclamation, paid by writers only while a reader is pinned:
//
//   - The partition goroutine brackets every task with BeginTask /
//     EndTask; the count of completed tasks is the partition's commit
//     boundary ("epoch"). Pin blocks — off the queue, on a condition
//     variable — until no task is mid-flight, so a view's epoch is
//     always a real boundary: all effects of tasks ≤ epoch, nothing
//     from later tasks, and never a half-executed transaction. A
//     parallel dispatcher brackets a whole run of concurrently-executed
//     tasks in one BeginTask/EndTask pair, advancing interior
//     boundaries with AdvanceTask; pins wait out the full run, since
//     its interior boundaries never exist as physical states.
//   - Every live row is stamped with installedAt, the task that
//     installed it. While a pinned reader can still see a row's
//     current state (maxPinned ≥ installedAt), a mutation first pushes
//     the pre-image onto the tuple's version chain (Table.olds) as a
//     rowVer covering boundaries [installedAt, curTask-1]. The live
//     heap is always the newest version — with no reader pinned the
//     write path pushes nothing and mutates in place, allocation-free.
//   - A view resolves a table to the live heap when nothing mutated it
//     since the pin (liveTask ≤ epoch: full speed, indexes included)
//     and otherwise to a versioned shim that resolves each tuple
//     through its chain at the pinned boundary. Readers never trigger
//     a table copy; writers never wait for readers beyond the
//     per-mutation latch.
//   - Every pushed version enters the retire ring. At each BeginTask
//     the partition drains the ring's prefix whose versions no open
//     pin can reach (to < minPinned, or no pins at all), unlinking
//     them under a try-lock and recycling the nodes through a free
//     list. Readers walk chains newest-first and stop before any node
//     older than their boundary, so a drained node is unreachable
//     before it is recycled.
//
// Maintained window aggregates are captured by value at pin time
// (O(#aggregates)), so aggregate reads never touch the live window at
// all — the O(1) read path. Truncate-under-pin is just a bulk
// mutation: every live row's pre-image goes onto its chain and the
// ring reclaims them like any other version.

// rowVer is one preserved (superseded) row version covering commit
// boundaries [from, to], linked newest-first on Table.olds. Nodes are
// recycled through the registry free list once no pin can reach them.
type rowVer struct {
	meta  TupleMeta
	data  types.Row
	from  uint64
	to    uint64
	older *rowVer
}

// retiredVer is one retire-ring entry: a pushed version awaiting
// reclamation. Entries are appended in push order, so ring order is
// non-decreasing in to within each tuple's chain and the drainable set
// is a prefix.
type retiredVer struct {
	tbl *Table
	tid uint64
	ver *rowVer
}

// AggCapture is one maintained window aggregate's value captured at a
// view's pin boundary.
type AggCapture struct {
	Fn  AggFunc
	Col int
	Val types.Value
}

// aggEntry is a view's captured aggregates for one table, reused
// across pins of a recycled view (gen tags the owning pin).
type aggEntry struct {
	gen  uint64
	caps []AggCapture
}

const (
	// maxFreeVers bounds the rowVer free list.
	maxFreeVers = 4096
	// maxFreeViews bounds the ReadView free list.
	maxFreeViews = 64
)

// Views is one partition's epoch registry: it tracks the commit
// boundary, admits pins onto boundaries, and reclaims superseded row
// versions once the oldest pin advances. The partition goroutine
// drives BeginTask/EndTask; Pin and view reads may run on any
// goroutine.
type Views struct {
	mu   sync.Mutex
	cond *sync.Cond
	cat  *Catalog

	// epoch counts completed tasks; it is the current commit boundary.
	// Atomic because wave workers push versions (reading curTask) while
	// AdvanceTask publishes interior boundaries.
	epoch  atomic.Uint64
	inTask bool
	// pinTicket/pinServed implement bounded boundary handoff: a pin
	// takes a ticket on arrival, and BeginTask waits for every ticket
	// issued before it to be served. Without this, back-to-back tasks
	// re-acquire the mutex faster than a condvar waiter can wake, and
	// pins starve; with it, a pin is served at the first commit
	// boundary after its arrival, while pins arriving after BeginTask
	// wait for the next boundary — so readers cannot starve the write
	// path either.
	pinTicket uint64
	pinServed uint64

	// curTask is epoch+1 while a task runs; mutation brackets stamp
	// liveTask and new row versions with it.
	curTask atomic.Uint64

	// pinCount / minPinned / maxPinned summarize the open pins for the
	// write path's lock-free checks: pinCount gates the mutation latch
	// and version pushes, maxPinned filters pushes nobody could read,
	// minPinned bounds reclamation. All are updated under mu.
	pinCount  atomic.Int64
	minPinned atomic.Uint64
	maxPinned atomic.Uint64

	views     map[*ReadView]struct{}
	freeViews []*ReadView

	// retireMu guards the retire ring and the version free list; it is
	// taken per version push (pins open only) and once per BeginTask.
	retireMu  sync.Mutex
	retire    []retiredVer
	freeVers  []*rowVer
	reclaimed uint64
}

// NewViews creates a registry over a catalog and wires the catalog so
// every current and future table participates in the versioning
// protocol.
func NewViews(cat *Catalog) *Views {
	v := &Views{
		cat:   cat,
		views: make(map[*ReadView]struct{}),
	}
	v.cond = sync.NewCond(&v.mu)
	cat.setViews(v)
	return v
}

// BeginTask marks the start of one task on the partition goroutine,
// first letting every pin that arrived before it take the current
// boundary, then reclaiming retired versions the remaining pins can no
// longer reach.
func (v *Views) BeginTask() {
	v.mu.Lock()
	for grace := v.pinTicket; v.pinServed < grace; {
		v.cond.Wait()
	}
	v.inTask = true
	v.curTask.Store(v.epoch.Load() + 1)
	v.mu.Unlock()
	v.drainRetired()
}

// EndTask publishes the task's commit boundary and wakes pinners.
func (v *Views) EndTask() {
	v.mu.Lock()
	v.epoch.Add(1)
	v.inTask = false
	v.cond.Broadcast()
	v.mu.Unlock()
}

// AdvanceTask publishes one task's boundary inside a parallel run
// WITHOUT admitting pins: the parallel dispatcher brackets a whole run
// of concurrently-executed tasks in one BeginTask/EndTask pair and
// calls AdvanceTask between retirements, so the completed-task count
// matches serial execution while pins can never land on an interior
// boundary. Interior boundaries are not real states — the run's bodies
// interleaved their mutations — so a pin must wait for the run's final
// EndTask, which it does because inTask stays true throughout.
func (v *Views) AdvanceTask() {
	v.mu.Lock()
	e := v.epoch.Add(1)
	v.curTask.Store(e + 1)
	v.mu.Unlock()
}

// Pin opens a read view at the current commit boundary. It waits — on
// a condition variable, never in the scheduler queue — for at most the
// task currently executing, not for the queue behind it. Maintained
// window aggregates are captured by value so aggregate reads off this
// view are O(1) and never touch the live window. View structs, their
// aggregate captures, and their table shims are recycled through a
// free list: a paced reader workload pins without allocating.
func (v *Views) Pin() *ReadView {
	v.mu.Lock()
	v.pinTicket++
	for v.inTask {
		v.cond.Wait()
	}
	rv := v.getView()
	rv.epoch = v.epoch.Load()
	v.cat.forEach(func(key string, t *Table) {
		aggs := t.MaintainedAggregates()
		if len(aggs) == 0 {
			return
		}
		e := rv.aggEntry(key)
		for _, a := range aggs {
			// Safe to read (and, for a dirty MIN/MAX, rescan) here: the
			// registry lock holds off BeginTask, so no task is mutating,
			// and concurrent pins serialize on the same lock.
			val, _ := t.MaintainedAggregate(a.Fn(), a.Col())
			e.caps = append(e.caps, AggCapture{Fn: a.Fn(), Col: a.Col(), Val: val})
		}
	})
	if v.pinCount.Load() == 0 {
		v.minPinned.Store(rv.epoch)
	}
	v.maxPinned.Store(rv.epoch) // epoch is monotone: the newest pin is the max
	v.views[rv] = struct{}{}
	v.pinCount.Add(1)
	v.pinServed++
	v.cond.Broadcast()
	v.mu.Unlock()
	return rv
}

// getView pops a recycled view or allocates one. Caller holds mu.
func (v *Views) getView() *ReadView {
	if k := len(v.freeViews); k > 0 {
		rv := v.freeViews[k-1]
		v.freeViews[k-1] = nil
		v.freeViews = v.freeViews[:k-1]
		rv.closed = false
		rv.gen++
		return rv
	}
	return &ReadView{reg: v, gen: 1}
}

// close unregisters a view, refreshes the pin summary, and recycles
// the view struct. The retired versions it pinned are reclaimed by the
// partition at its next BeginTask.
func (v *Views) close(rv *ReadView) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if rv.closed {
		return
	}
	rv.closed = true
	delete(v.views, rv)
	v.pinCount.Add(-1)
	if len(v.views) == 0 {
		v.minPinned.Store(0)
		v.maxPinned.Store(0)
	} else {
		first := true
		var min, max uint64
		for o := range v.views {
			if first {
				min, max, first = o.epoch, o.epoch, false
				continue
			}
			if o.epoch < min {
				min = o.epoch
			}
			if o.epoch > max {
				max = o.epoch
			}
		}
		v.minPinned.Store(min)
		v.maxPinned.Store(max)
	}
	if len(v.freeViews) < maxFreeViews {
		v.freeViews = append(v.freeViews, rv)
	}
}

// getVer pops a version node off the free list or allocates one.
func (v *Views) getVer() *rowVer {
	v.retireMu.Lock()
	var n *rowVer
	if k := len(v.freeVers); k > 0 {
		n = v.freeVers[k-1]
		v.freeVers[k-1] = nil
		v.freeVers = v.freeVers[:k-1]
	} else {
		n = &rowVer{}
	}
	v.retireMu.Unlock()
	return n
}

// retireVer queues a pushed version for reclamation.
func (v *Views) retireVer(t *Table, tid uint64, n *rowVer) {
	v.retireMu.Lock()
	v.retire = append(v.retire, retiredVer{tbl: t, tid: tid, ver: n})
	v.retireMu.Unlock()
}

// drainRetired reclaims the retire-ring prefix no open pin can reach:
// version nodes with to < minPinned (all of them when no pin is open)
// are unlinked from their chains under a try-lock and recycled.
// Skipping on a held latch is safe — the entries stay queued and the
// next boundary retries. Runs on the partition goroutine, between
// tasks, so it never races the write path.
func (v *Views) drainRetired() {
	v.retireMu.Lock()
	defer v.retireMu.Unlock()
	if len(v.retire) == 0 {
		return
	}
	pinned := v.pinCount.Load() > 0
	min := v.minPinned.Load()
	i := 0
	for ; i < len(v.retire); i++ {
		e := v.retire[i]
		if pinned && e.ver.to >= min {
			break
		}
		ok, freed := e.tbl.tryUnlink(e.tid, e.ver)
		if !ok {
			break
		}
		if freed != nil {
			freed.meta, freed.data, freed.older = TupleMeta{}, nil, nil
			if len(v.freeVers) < maxFreeVers {
				v.freeVers = append(v.freeVers, freed)
			}
		}
		v.reclaimed++
	}
	if i > 0 {
		n := copy(v.retire, v.retire[i:])
		for j := n; j < len(v.retire); j++ {
			v.retire[j] = retiredVer{}
		}
		v.retire = v.retire[:n]
	}
}

// tryUnlink detaches ver — by ring order, the oldest un-reclaimed node
// of tid's chain — under the write latch, returning ok=false when a
// reader (or writer) holds the latch. The freed result is nil when the
// node is no longer on the chain (an unpinned truncate reset the
// chains wholesale); the entry is still consumed.
func (t *Table) tryUnlink(tid uint64, ver *rowVer) (ok bool, freed *rowVer) {
	if !t.latch.TryLock() {
		return false, nil
	}
	defer t.latch.Unlock()
	n := t.olds[tid]
	if n == nil {
		return true, nil
	}
	if n == ver {
		if ver.older == nil {
			delete(t.olds, tid)
		} else {
			t.olds[tid] = ver.older
		}
		return true, ver
	}
	for ; n.older != nil; n = n.older {
		if n.older == ver {
			n.older = ver.older
			return true, ver
		}
	}
	return true, nil
}

// ReadView is a pinned, transaction-consistent snapshot of one
// partition at a commit boundary. It is safe for concurrent use; Close
// releases it. A closed view must not be used again: the struct is
// recycled by the next Pin.
type ReadView struct {
	reg    *Views
	epoch  uint64
	gen    uint64
	aggs   map[string]*aggEntry
	closed bool

	// mu guards the shim cache against concurrent Query calls.
	mu    sync.Mutex
	shims []*Table
}

// Epoch returns the commit boundary (completed-task count) the view is
// pinned at.
func (rv *ReadView) Epoch() uint64 { return rv.epoch }

// Close releases the view. Idempotent.
func (rv *ReadView) Close() { rv.reg.close(rv) }

// aggEntry returns the capture slot for a table key, reusing the
// recycled view's map and slice capacity.
func (rv *ReadView) aggEntry(key string) *aggEntry {
	if rv.aggs == nil {
		rv.aggs = make(map[string]*aggEntry)
	}
	e := rv.aggs[key]
	if e == nil {
		e = &aggEntry{}
		rv.aggs[key] = e
	}
	e.caps = e.caps[:0]
	e.gen = rv.gen
	return e
}

// Table resolves a table to the state at the view's boundary: the live
// heap when nothing mutated it since the pin (full speed, indexes
// included), else a versioned shim resolving each tuple through its
// version chain — never a table copy. The returned release function
// must be called when the caller is done reading; it drops the
// live-heap read latch that keeps the write path from splicing chains
// mid-statement.
func (rv *ReadView) Table(name string) (*Table, func(), error) {
	v := rv.reg
	t, ok := v.cat.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("storage: no such table %q", name)
	}
	t.latch.RLock()
	if t.liveTask.Load() <= rv.epoch {
		return t, t.releaseRead, nil
	}
	return rv.shimFor(t), t.releaseRead, nil
}

// shimFor returns the view's cached versioned shim over src, creating
// it on first use. Shims are retained across pins of a recycled view,
// so steady-state stale reads allocate nothing.
func (rv *ReadView) shimFor(src *Table) *Table {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	for _, s := range rv.shims {
		if s.src == src {
			if s.asOf != rv.epoch {
				s.asOf = rv.epoch
			}
			return s
		}
	}
	s := &Table{
		name:    src.name,
		kind:    src.kind,
		schema:  src.schema,
		OwnerSP: src.OwnerSP,
		src:     src,
		asOf:    rv.epoch,
	}
	rv.shims = append(rv.shims, s)
	return s
}

// MaintainedValue returns the pin-time value of a maintained window
// aggregate, or false when the (table, fn, col) aggregate is not
// registered.
func (rv *ReadView) MaintainedValue(table string, fn AggFunc, col int) (types.Value, bool) {
	e := rv.aggs[lowerKey(table)]
	if e == nil || e.gen != rv.gen {
		return types.Null, false
	}
	for _, c := range e.caps {
		if c.Fn == fn && c.Col == col {
			return c.Val, true
		}
	}
	return types.Null, false
}

// lowerKey mirrors the catalog's case-insensitive keying without
// allocating for already-lower names.
func lowerKey(s string) string {
	lower := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			lower = false
			break
		}
	}
	if lower {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}
