package storage

import (
	"fmt"

	"sstore/internal/types"
)

// WindowSpec configures a sliding window table (§3.2.2). Exactly one of
// tuple-based or time-based semantics applies:
//
//   - Tuple-based: Size and Slide count tuples. The first full window
//     becomes visible once Size tuples have arrived; thereafter every
//     Slide new tuples expire the oldest Slide active tuples and
//     activate the staged ones. Slide == Size is a tumbling window.
//   - Time-based: Size and Slide are microseconds over the values of
//     TimeColumn, which must be monotonically non-decreasing at
//     insertion (stream order). The window covers [start, start+Size);
//     a tuple at or past start+Size advances start by whole Slides. A
//     late tuple below start (out-of-order arrival) is expired on
//     insert — it predates the window and must never become visible.
type WindowSpec struct {
	TimeBased  bool
	Size       int64
	Slide      int64
	TimeColumn int // column ordinal for time-based windows
}

// Validate checks the spec's internal consistency.
func (s WindowSpec) Validate() error {
	if s.Size <= 0 {
		return fmt.Errorf("storage: window size must be positive, got %d", s.Size)
	}
	if s.Slide <= 0 || s.Slide > s.Size {
		return fmt.Errorf("storage: window slide must be in (0, size], got %d", s.Slide)
	}
	if s.TimeBased && s.TimeColumn < 0 {
		return fmt.Errorf("storage: time-based window needs a time column")
	}
	return nil
}

// WindowState is the live bookkeeping for a window table. The paper
// notes that keeping these statistics in table metadata — rather than
// recomputing them with queries, as the H-Store baseline must — is the
// main source of the native-windowing speedup (§4.3).
//
// The active and staged deques hold the visible and not-yet-visible
// TIDs in arrival order, so a slide touches exactly the tuples it
// expires and activates: per-insert upkeep is O(slide) amortized
// instead of a scan of the whole table.
type WindowState struct {
	Spec    WindowSpec
	filled  bool  // tuple-based: first full window has formed
	start   int64 // time-based: inclusive lower bound of the window
	started bool  // time-based: start has been initialized
	slides  uint64

	active tidDeque // visible tuples, ascending TID (= arrival order)
	staged tidDeque // invisible tuples awaiting activation, ascending TID

	// Time-based windows expire as a front-pop of active, which is
	// correct only while activation order (TID order) is also time
	// order. maxTS tracks the largest activated time; activating below
	// it — an out-of-order arrival that still lands inside the window,
	// or an Update rewriting the time column — sets timeDisorder, and
	// expiry falls back to a full sweep of the active deque until the
	// window drains empty. Contract-conforming streams never pay this.
	maxTS        int64
	maxTSSet     bool
	timeDisorder bool

	aggs    []*WindowAggregate // maintained aggregates, registration order
	grouped []*WindowGroups    // maintained per-key aggregates, one per key set
}

// Mark captures the scalar window bookkeeping (everything except the
// rows themselves, which physical undo restores) so a transaction abort
// can reset it. Scalar maintained-aggregate accumulators are part of
// the capture: they are small value types, so copying them is O(#aggs)
// and an abort restores aggregate state exactly — including float sums,
// which physical undo replay alone cannot guarantee bit-for-bit.
// Grouped accumulators are not captured: they hold only exact integer
// deltas, so physical undo alone restores them.
type WindowMark struct {
	filled       bool
	start        int64
	started      bool
	slides       uint64
	maxTS        int64
	maxTSSet     bool
	timeDisorder bool
	aggs         []aggState
}

// Mark returns the current scalar state.
func (w *WindowState) Mark() WindowMark {
	m := WindowMark{
		filled: w.filled, start: w.start, started: w.started, slides: w.slides,
		maxTS: w.maxTS, maxTSSet: w.maxTSSet, timeDisorder: w.timeDisorder,
	}
	if len(w.aggs) > 0 {
		m.aggs = make([]aggState, len(w.aggs))
		for i, a := range w.aggs {
			m.aggs[i] = a.state
		}
	}
	return m
}

// Reset restores scalar state captured by Mark. It runs after physical
// undo has restored the rows (and with them the deques), so overwriting
// the aggregate accumulators with the marked copies leaves the window
// exactly as it was when Mark ran.
func (w *WindowState) Reset(m WindowMark) {
	w.filled, w.start, w.started, w.slides = m.filled, m.start, m.started, m.slides
	w.maxTS, w.maxTSSet, w.timeDisorder = m.maxTS, m.maxTSSet, m.timeDisorder
	for i, a := range w.aggs {
		if i < len(m.aggs) {
			a.state = m.aggs[i]
		}
	}
}

// NewWindowTable creates a window table with the given spec.
func NewWindowTable(name string, schema *types.Schema, spec WindowSpec) (*Table, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.TimeBased {
		if spec.TimeColumn >= schema.Len() {
			return nil, fmt.Errorf("storage: window %s time column %d out of range", name, spec.TimeColumn)
		}
		k := schema.Column(spec.TimeColumn).Kind
		if k != types.KindTimestamp && k != types.KindInt {
			return nil, fmt.Errorf("storage: window %s time column must be TIMESTAMP or BIGINT, got %s", name, k)
		}
	}
	t := NewTable(name, KindWindow, schema)
	t.window = &WindowState{Spec: spec}
	return t, nil
}

// maybeSlide checks the slide condition after an insert of row (already
// staged) and performs at most the required slides. It reports whether
// at least one slide happened. Expired tuples are deleted and staged
// tuples activated, all through the undo recorder so aborts restore the
// exact pre-TE window state (§2.4).
func (t *Table) maybeSlide(row types.Row, undo Undo) bool {
	w := t.window
	if w.Spec.TimeBased {
		return t.slideTime(row, undo)
	}
	return t.slideTuples(undo)
}

// slideTuples implements tuple-based slide semantics.
func (t *Table) slideTuples(undo Undo) bool {
	w := t.window
	slid := false
	if !w.filled {
		// The first window forms when Size tuples have been staged.
		if int64(w.staged.Len()) >= w.Spec.Size {
			t.activateOldestStaged(int(w.Spec.Size), undo)
			w.filled = true
			w.slides++
			slid = true
		}
		return slid
	}
	for int64(w.staged.Len()) >= w.Spec.Slide {
		t.expireOldestActive(int(w.Spec.Slide), undo)
		t.activateOldestStaged(int(w.Spec.Slide), undo)
		w.slides++
		slid = true
	}
	return slid
}

// slideTime implements time-based slide semantics.
func (t *Table) slideTime(row types.Row, undo Undo) bool {
	w := t.window
	ts := timeValue(row[w.Spec.TimeColumn])
	if !w.started {
		w.start = ts
		w.started = true
	}
	slid := false
	if ts >= w.start+w.Spec.Size {
		// Advance by whole slides in one step: a stream resuming
		// after an idle gap must not pay one loop iteration per
		// elapsed slide.
		k := (ts-(w.start+w.Spec.Size))/w.Spec.Slide + 1
		w.start += k * w.Spec.Slide
		w.slides += uint64(k)
		slid = true
	}
	if slid {
		t.expireActiveBefore(w.start, undo)
	}
	// Drain staged tuples against the (possibly advanced) window:
	// tuples inside [start, start+Size) activate immediately; late
	// tuples below start are expired, never activated — the window
	// does not cover them.
	t.drainStaged(undo)
	// With at most one tuple left there is no ordering to be wrong
	// about: disorder has drained out and prefix pops are safe again.
	if w.timeDisorder && w.staged.Len() == 0 && w.active.Len() <= 1 {
		w.timeDisorder = false
		w.maxTSSet = false
		if w.active.Len() == 1 {
			if r, ok := t.liveRow(w.active.Front()); ok {
				w.maxTS, w.maxTSSet = timeValue(r.data[w.Spec.TimeColumn]), true
			}
		}
	}
	return slid
}

func timeValue(v types.Value) int64 {
	if v.Kind() == types.KindTimestamp {
		return v.Timestamp()
	}
	return v.Int()
}

// noteActivation records the time of a tuple entering the active set;
// activating below the high-water mark means activation order no
// longer matches time order and prefix expiry is unsafe.
func (w *WindowState) noteActivation(ts int64) {
	if !w.Spec.TimeBased {
		return
	}
	if w.maxTSSet && ts < w.maxTS {
		w.timeDisorder = true
	}
	if !w.maxTSSet || ts > w.maxTS {
		w.maxTS, w.maxTSSet = ts, true
	}
}

// activateOldestStaged clears the staging flag on the n oldest staged
// tuples: n front-pops of the staged deque, O(n) rather than a scan of
// the whole table.
func (t *Table) activateOldestStaged(n int, undo Undo) {
	w := t.window
	for ; n > 0 && w.staged.Len() > 0; n-- {
		t.setStaged(w.staged.Front(), false, undo)
	}
}

// expireOldestActive deletes the n oldest active tuples: n front-pops
// of the active deque.
func (t *Table) expireOldestActive(n int, undo Undo) {
	w := t.window
	for ; n > 0 && w.active.Len() > 0; n-- {
		_, _ = t.Delete(w.active.Front(), undo)
	}
}

// drainStaged resolves every staged tuple of a time-based window
// against the current bounds: expire below start, activate inside
// [start, start+Size). Staged TID order is arrival order, and the time
// column is non-decreasing in arrival order, so front-pops see the
// smallest timestamps first and the loop can stop at the first tuple
// past the window's end.
func (t *Table) drainStaged(undo Undo) {
	w := t.window
	col := w.Spec.TimeColumn
	if w.timeDisorder {
		// Staged TID order may not be time order (re-staged tuples
		// whose time column was rewritten): sweep every staged tuple
		// instead of stopping at the first one past the window.
		tids := make([]uint64, 0, w.staged.Len())
		for i := 0; i < w.staged.Len(); i++ {
			tids = append(tids, w.staged.At(i))
		}
		for _, tid := range tids {
			r, ok := t.liveRow(tid)
			if !ok || !r.meta.Staged {
				continue
			}
			switch ts := timeValue(r.data[col]); {
			case ts < w.start:
				_, _ = t.Delete(tid, undo)
			case ts < w.start+w.Spec.Size:
				t.setStaged(tid, false, undo)
			}
		}
		return
	}
	for w.staged.Len() > 0 {
		tid := w.staged.Front()
		r, ok := t.liveRow(tid)
		if !ok {
			w.staged.PopFront()
			continue
		}
		ts := timeValue(r.data[col])
		switch {
		case ts < w.start:
			_, _ = t.Delete(tid, undo)
		case ts < w.start+w.Spec.Size:
			t.setStaged(tid, false, undo)
		default:
			return
		}
	}
}

// expireActiveBefore deletes active tuples with time < bound. Active
// tuples are normally activated in non-decreasing time order, so the
// expired set is a prefix of the active deque; once an out-of-order
// activation has broken that invariant, expiry sweeps the whole
// active deque until the window drains empty.
func (t *Table) expireActiveBefore(bound int64, undo Undo) {
	w := t.window
	col := w.Spec.TimeColumn
	if w.timeDisorder {
		var victims []uint64
		for i := 0; i < w.active.Len(); i++ {
			tid := w.active.At(i)
			if r, ok := t.liveRow(tid); ok && timeValue(r.data[col]) < bound {
				victims = append(victims, tid)
			}
		}
		for _, tid := range victims {
			_, _ = t.Delete(tid, undo)
		}
		return
	}
	for w.active.Len() > 0 {
		tid := w.active.Front()
		r, ok := t.liveRow(tid)
		if !ok {
			w.active.PopFront()
			continue
		}
		if timeValue(r.data[col]) >= bound {
			return
		}
		_, _ = t.Delete(tid, undo)
	}
}
