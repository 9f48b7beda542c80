package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sstore/internal/types"
)

// Catalog owns every table of one partition. Names are
// case-insensitive. Tables themselves are mutated only under the
// partition discipline (serial goroutine + the read-view latch
// protocol), but the name→table map is additionally guarded by a
// read/write mutex: the snapshot read path resolves and compiles
// against the catalog from arbitrary goroutines, and runtime DDL
// (an ad-hoc CREATE) writes the map from the partition goroutine.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// views, when non-nil, is the partition's read-view registry;
	// every table created through the catalog joins its copy-on-write
	// protocol.
	views *Views
	// archive, when non-nil, supplies the disk-backed heap site for
	// CREATE ARCHIVE TABLE; the partition engine installs it lazily so
	// partitions that never archive pay nothing.
	archive func() (*ArchiveSite, error)
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Create registers a table. It fails if the name is taken.
func (c *Catalog) Create(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(t.Name())
	if _, exists := c.tables[key]; exists {
		return fmt.Errorf("storage: table %q already exists", t.Name())
	}
	// Adopt the catalog's view registry, but never clobber an existing
	// hook: ephemeral catalogs (a read view's resolved tables) have no
	// registry of their own and must not detach a live table from its
	// partition's copy-on-write protocol.
	if c.views != nil {
		t.views = c.views
	}
	c.tables[key] = t
	return nil
}

// setViews attaches a read-view registry; existing tables join the
// copy-on-write protocol retroactively.
func (c *Catalog) setViews(v *Views) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.views = v
	for _, t := range c.tables {
		t.views = v
	}
}

// forEach visits every table under the read lock; fn must not call
// back into the catalog.
func (c *Catalog) forEach(fn func(key string, t *Table)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for key, t := range c.tables {
		fn(key, t)
	}
}

// Get returns the named table, or an error mentioning the name.
func (c *Catalog) Get(name string) (*Table, error) {
	t, ok := c.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("storage: no such table %q", name)
	}
	return t, nil
}

// Lookup returns the named table and whether it exists.
func (c *Catalog) Lookup(name string) (*Table, bool) {
	c.mu.RLock()
	t, ok := c.tables[strings.ToLower(name)]
	c.mu.RUnlock()
	return t, ok
}

// SetArchiveProvider installs the hook that materializes the
// partition's archive site (buffer pool + page-file directory) on
// first use.
func (c *Catalog) SetArchiveProvider(fn func() (*ArchiveSite, error)) {
	c.mu.Lock()
	c.archive = fn
	c.mu.Unlock()
}

// ArchiveSite resolves the partition's archive site through the
// installed provider.
func (c *Catalog) ArchiveSite() (*ArchiveSite, error) {
	c.mu.RLock()
	fn := c.archive
	c.mu.RUnlock()
	if fn == nil {
		return nil, fmt.Errorf("storage: no archive storage configured for this partition")
	}
	return fn()
}

// Names returns all table names in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		names = append(names, t.Name())
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Tables returns all tables, ordered by name.
func (c *Catalog) Tables() []*Table {
	names := c.Names()
	out := make([]*Table, len(names))
	for i, n := range names {
		out[i], _ = c.Lookup(n)
	}
	return out
}

// StreamsWithData returns every stream table that currently holds
// tuples, in name order. Recovery uses this to decide which PE triggers
// to fire after a snapshot load (§3.2.5).
func (c *Catalog) StreamsWithData() []*Table {
	var out []*Table
	for _, t := range c.Tables() {
		if t.Kind() == KindStream && t.Len() > 0 {
			out = append(out, t)
		}
	}
	return out
}

// BatchRows returns the rows of the given atomic batch in arrival
// order.
func BatchRows(t *Table, batchID int64) []types.Row {
	var rows []types.Row
	t.Scan(func(meta TupleMeta, row types.Row) bool {
		if meta.BatchID == batchID {
			rows = append(rows, row)
		}
		return true
	})
	return rows
}

// PendingBatches returns the distinct batch IDs present in a stream
// table, ascending. Streams are consumed in batch order, so recovery
// re-fires triggers batch by batch.
func PendingBatches(t *Table) []int64 {
	seen := make(map[int64]bool)
	var ids []int64
	t.Scan(func(meta TupleMeta, _ types.Row) bool {
		if !seen[meta.BatchID] {
			seen[meta.BatchID] = true
			ids = append(ids, meta.BatchID)
		}
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// DeleteBatch removes every tuple of an atomic batch from a stream
// table; this is the automatic garbage collection that runs once the
// batch has been consumed downstream (§3.2.3).
//
// The victims list reuses the table's scratch. That is safe because a
// table's stream GC runs on one goroutine at a time: its partition's
// dispatcher (post-commit GC), recovery, or the body of the TE that
// wrote the stream (an EE trigger's GC). A Workers wave runs bodies
// concurrently only when their declared write sets are disjoint, the
// stream is in its writer's set, and the dispatcher waits for the
// whole wave before it retires any member.
func DeleteBatch(t *Table, batchID int64, undo Undo) int {
	victims := t.gcVictims[:0]
	t.Scan(func(meta TupleMeta, _ types.Row) bool {
		if meta.BatchID == batchID {
			victims = append(victims, meta.TID)
		}
		return true
	})
	for _, tid := range victims {
		_, _ = t.Delete(tid, undo)
	}
	t.gcVictims = victims[:0]
	return len(victims)
}
