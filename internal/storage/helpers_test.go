package storage

import "sstore/internal/index"

// Accessors the tests read; the engine itself never needs them.

// IndexOn returns an index whose leading columns exactly match cols, or
// nil.
func (t *Table) IndexOn(cols []int) index.Index {
	for _, idx := range t.indexes {
		ic := idx.Columns()
		if len(ic) != len(cols) {
			continue
		}
		match := true
		for i := range ic {
			if ic[i] != cols[i] {
				match = false
				break
			}
		}
		if match {
			return idx
		}
	}
	return nil
}

// RetiredLen reports the number of superseded versions awaiting
// reclamation (the retire ring's length).
func (v *Views) RetiredLen() int {
	v.retireMu.Lock()
	defer v.retireMu.Unlock()
	return len(v.retire)
}

// Reclaimed reports the total number of retire-ring entries drained
// since creation.
func (v *Views) Reclaimed() uint64 {
	v.retireMu.Lock()
	defer v.retireMu.Unlock()
	return v.reclaimed
}

// StagedCount returns the number of staged (invisible) tuples.
func (w *WindowState) StagedCount() int { return w.staged.Len() }

// Slides returns the total number of slides since creation.
func (w *WindowState) Slides() uint64 { return w.slides }
