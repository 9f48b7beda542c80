package storage

import (
	"cmp"
	"slices"
)

// A table's heap is one slice of slots in ascending TID (arrival)
// order, holding the row itself (storedRow) or, for archive tables, its
// page locator (recLoc). Insert appends; delete keeps the TID listed so
// versioned scans reach its chain; lookup tries the offset tid − first
// TID, then binary-searches; dead slots are compacted out in place once
// they are half the slice (not while version chains exist). Only
// rollback breaks the order: a row whose slot was compacted away earlier
// in the transaction is appended past sorted, unseen by lookups, until
// sortRestored sorts all such rows in once — not an O(n) insertion per
// row. They carry the running task's stamp, which no pinned reader can
// see, so readers lose nothing by the lookups skipping them.

type slot[P any] struct {
	tid  uint64
	live bool
	val  P
}

type slots[P any] struct {
	s      []slot[P]
	sorted int // length of the TID-ordered prefix of s
	dead   int
}

// heapList is what Table needs of either heap without its payloads.
type heapList interface {
	live() int
	size() int
	tidAt(i int) uint64
	compact()
	sortRestored()
	killAll()
}

// find returns the index of tid's slot, live or dead, in the sorted
// prefix.
//
//sstore:nomalloc
func (h *slots[P]) find(tid uint64) (int, bool) {
	s := h.s[:h.sorted]
	n := len(s)
	if n == 0 || tid > s[n-1].tid {
		return n, false
	}
	if i := tid - s[0].tid; i < uint64(n) && s[i].tid == tid {
		return int(i), true
	}
	lo, hi := 0, n
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s[m].tid < tid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < n && s[lo].tid == tid
}

// get returns tid's payload if the tuple is live.
//
//sstore:nomalloc
func (h *slots[P]) get(tid uint64) (P, bool) {
	if i, ok := h.find(tid); ok && h.s[i].live {
		return h.s[i].val, true
	}
	var none P
	return none, false
}

func (h *slots[P]) live() int { return len(h.s) - h.dead }

// size counts the slots, dead ones included; tidAt is slot i's TID.
func (h *slots[P]) size() int { return len(h.s) }

func (h *slots[P]) tidAt(i int) uint64 { return h.s[i].tid }

// put installs v as tid's payload: in its slot if it has one, else
// appended.
func (h *slots[P]) put(tid uint64, v P) {
	if i, ok := h.find(tid); ok {
		if !h.s[i].live {
			h.s[i].live = true
			h.dead--
		}
		h.s[i].val = v
		return
	}
	if h.sorted == len(h.s) && (h.sorted == 0 || h.s[h.sorted-1].tid < tid) {
		h.sorted++
	}
	h.s = append(h.s, slot[P]{tid: tid, live: true, val: v})
}

// remove marks tid's slot dead and drops its payload.
func (h *slots[P]) remove(tid uint64) {
	if i, ok := h.find(tid); ok && h.s[i].live {
		var none P
		h.s[i].live, h.s[i].val = false, none
		h.dead++
	}
}

// killAll marks every slot dead, keeping the TIDs listed.
func (h *slots[P]) killAll() {
	var none P
	for i := range h.s {
		h.s[i].live, h.s[i].val = false, none
	}
	h.dead = len(h.s)
}

// compact drops the dead slots once they are half the heap, clearing
// the freed tail so the GC can take the payloads. Each compaction
// removes at least half the slots it walks: amortized O(1) per delete.
func (h *slots[P]) compact() {
	if h.dead == 0 || h.dead*2 < len(h.s) {
		return
	}
	h.sortRestored()
	j := 0
	for i := range h.s {
		if h.s[i].live {
			h.s[j] = h.s[i]
			j++
		}
	}
	clear(h.s[j:])
	h.s, h.sorted, h.dead = h.s[:j], j, 0
}

func (h *slots[P]) sortRestored() {
	if h.sorted < len(h.s) {
		slices.SortFunc(h.s, func(a, b slot[P]) int { return cmp.Compare(a.tid, b.tid) })
		h.sorted = len(h.s)
	}
}
