package stormlike

// Accessors the tests read the state store and pipeline through.

// Ops returns the number of store operations performed.
func (s *KVStore) Ops() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// Len returns the number of stored keys.
func (s *KVStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Committed returns the number of committed batches.
func (t *Trident) Committed() uint64 { return t.committed }

// Attempts returns total batch attempts including retries.
func (t *Trident) Attempts() uint64 { return t.attempts }
