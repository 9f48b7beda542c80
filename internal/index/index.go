// Package index provides the secondary-index structures used by tables:
// an equality hash index and an ordered B+tree. Indexes map composite
// keys (one or more column values) to tuple IDs; the table owns the
// actual rows.
package index

import (
	"fmt"

	"sstore/internal/types"
)

// Key is a composite index key: one value per indexed column.
type Key = types.Row

// Index is the interface shared by all index implementations.
type Index interface {
	// Name identifies the index within its table.
	Name() string
	// Columns returns the ordinals of the indexed columns in the
	// table schema.
	Columns() []int
	// Insert adds a (key, tupleID) entry. For unique indexes it
	// returns ErrDuplicateKey when the key is already present.
	Insert(key Key, tid uint64) error
	// Delete removes a (key, tupleID) entry if present.
	Delete(key Key, tid uint64)
	// Lookup returns the tuple IDs for an exact key match. The
	// returned slice must not be modified.
	Lookup(key Key) []uint64
}

// ErrDuplicateKey is returned by Insert on a unique index when the key
// already exists.
var ErrDuplicateKey = fmt.Errorf("index: duplicate key")

// CompareKeys orders composite keys lexicographically. Keys must have
// the same arity and pairwise-comparable kinds; the table layer
// guarantees this, so violations panic.
func CompareKeys(a, b Key) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("index: comparing keys of arity %d and %d", len(a), len(b)))
	}
	for i := range a {
		if c := a[i].MustCompare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// HashKey combines the hashes of the key's values.
//
//sstore:nomalloc
func HashKey(k Key) uint64 {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for _, v := range k {
		h ^= v.Hash()
		h *= 1099511628211 // FNV-64 prime
	}
	return h
}

// KeysEqual reports whether two composite keys are pairwise equal.
//
//sstore:nomalloc
func KeysEqual(a, b Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
