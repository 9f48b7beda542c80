// Package stormlike is a miniature of Storm's Trident layer (§4.6.2,
// §5), built as a comparison baseline: a transactional layer giving
// exactly-once batch processing against an external key/value state
// store (the Memcached stand-in) reached through a simulated network
// hop.
package stormlike

import (
	"fmt"
	"sync"
	"time"

	"sstore/internal/netsim"
	"sstore/internal/types"
)

// KVStore is the external state server Trident topologies keep their
// state in — the stand-in for the Memcached deployment of §4.6.2.
// Every operation pays a simulated network hop, which is the
// structural cost that separates Trident from S-Store's in-engine
// state in Figure 10.
type KVStore struct {
	mu   sync.Mutex
	data map[string]kvEntry
	hop  time.Duration
	ops  uint64
}

type kvEntry struct {
	value types.Row
	txid  int64 // last transaction that wrote the key
}

// DefaultKVHop approximates a localhost Memcached round trip (the
// paper's §4.6 comparison is single-node, so the state store shares
// the machine).
const DefaultKVHop = 25 * time.Microsecond

// NewKVStore creates a store with the given per-operation hop latency.
func NewKVStore(hop time.Duration) *KVStore {
	return &KVStore{data: make(map[string]kvEntry), hop: hop}
}

// Get fetches a key (one network hop). ok=false when absent.
func (s *KVStore) Get(key string) (types.Row, bool) {
	netsim.Delay(s.hop)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	e, ok := s.data[key]
	return e.value, ok
}

// GetWithTxid fetches a key and the txid that last wrote it.
func (s *KVStore) GetWithTxid(key string) (types.Row, int64, bool) {
	netsim.Delay(s.hop)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	e, ok := s.data[key]
	return e.value, e.txid, ok
}

// PutIfNewTxid writes a key tagged with the writing transaction. The
// write is skipped when the key was already written by this txid —
// Trident's idempotent-state trick that upgrades at-least-once replay
// to exactly-once updates.
func (s *KVStore) PutIfNewTxid(txid int64, key string, value types.Row) bool {
	netsim.Delay(s.hop)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	if e, ok := s.data[key]; ok && e.txid == txid {
		return false
	}
	s.data[key] = kvEntry{value: value, txid: txid}
	return true
}

// TridentBatchFunc processes one batch against external state.
type TridentBatchFunc func(txid int64, rows []types.Row, state *KVStore) error

// Trident runs batches with exactly-once semantics over a Storm-style
// substrate: each batch gets a transaction ID; batches commit in txid
// order; a failed batch is retried with the *same* txid, and the
// txid-tagged state writes make the retry idempotent (§5).
type Trident struct {
	state    *KVStore
	fn       TridentBatchFunc
	nextTxid int64

	attempts  uint64
	committed uint64
}

// NewTrident creates a Trident pipeline over a state store.
func NewTrident(state *KVStore, fn TridentBatchFunc) *Trident {
	return &Trident{state: state, fn: fn, nextTxid: 1}
}

// ProcessBatch runs one batch to commit, retrying with the same txid
// on failure (exactly-once).
func (t *Trident) ProcessBatch(rows []types.Row) error {
	txid := t.nextTxid
	const maxAttempts = 10
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		t.attempts++
		if err := t.fn(txid, rows, t.state); err != nil {
			lastErr = err
			continue
		}
		t.nextTxid++
		t.committed++
		return nil
	}
	return fmt.Errorf("stormlike: batch txid %d failed after %d attempts: %w", txid, maxAttempts, lastErr)
}
