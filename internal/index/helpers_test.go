package index

// Accessors the tests read; the table layer never needs them.

// Len returns the number of (key, tupleID) entries.
func (t *BTree) Len() int { return t.entries }

// Len returns the number of (key, tupleID) entries.
func (h *HashIndex) Len() int { return h.entries }
