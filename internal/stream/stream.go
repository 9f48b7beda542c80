// Package stream implements the stream injection side of the paper's
// architecture (§3.2): atomic batches, batch assembly from a raw tuple
// feed, and the exactly-once ingestion bookkeeping that rejects
// duplicate batches on re-send (e.g. after a client retry or during
// recovery replay).
package stream

import (
	"fmt"
	"sync"

	"sstore/internal/types"
)

// Batch is one atomic batch: a finite, contiguous subsequence of a
// stream that must be processed as a unit (§2.1).
type Batch struct {
	// Stream names the stream the batch belongs to. Inside the engine
	// it is the lower-case catalog key; an ingest caller may leave it
	// empty, since Ingest names the stream.
	Stream string
	// ID is the batch identifier; batches of one stream carry
	// strictly increasing IDs.
	ID int64
	// Rows are the batch's tuples in arrival order.
	Rows []types.Row
}

// Assembler groups a raw tuple feed into fixed-size atomic batches,
// assigning consecutive batch IDs. This is the "stream injection
// module ... responsible for preparing the atomic batches" of Figure 4.
// The zero Assembler is not usable; use NewAssembler.
type Assembler struct {
	size   int
	nextID int64
	buf    []types.Row
}

// NewAssembler creates an assembler producing batches of the given
// tuple count (the paper's experiments mostly use size 1).
func NewAssembler(size int) (*Assembler, error) {
	if size <= 0 {
		return nil, fmt.Errorf("stream: batch size must be positive, got %d", size)
	}
	return &Assembler{size: size, nextID: 1}, nil
}

// Push adds a tuple to the assembler, returning a completed batch when
// the size threshold is reached, or nil.
func (a *Assembler) Push(row types.Row) *Batch {
	a.buf = append(a.buf, row)
	if len(a.buf) < a.size {
		return nil
	}
	return a.flush()
}

// Flush emits any buffered tuples as a final short batch, or nil when
// the buffer is empty. Use at end of input.
func (a *Assembler) Flush() *Batch {
	if len(a.buf) == 0 {
		return nil
	}
	return a.flush()
}

func (a *Assembler) flush() *Batch {
	b := &Batch{ID: a.nextID, Rows: a.buf}
	a.nextID++
	a.buf = nil
	return b
}

// Dedup tracks the highest batch ID admitted per stream so duplicate
// deliveries are ingested exactly once. It is safe for concurrent use:
// injection and recovery may race on different streams.
type Dedup struct {
	mu   sync.Mutex
	high map[string]mark
}

// mark remembers the current high-water batch ID and the one it
// replaced, so the most recent admission can be released if the batch
// never actually entered the engine (e.g. its enqueue failed).
type mark struct {
	high, prev int64
}

// NewDedup creates an empty tracker.
func NewDedup() *Dedup {
	return &Dedup{high: make(map[string]mark)}
}

// Admit reports whether the batch is new for the stream and records it.
// Batches must arrive in increasing ID order per stream; an old or
// repeated ID is rejected.
func (d *Dedup) Admit(stream string, batchID int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.high[stream]
	if batchID <= m.high {
		return false
	}
	d.high[stream] = mark{high: batchID, prev: m.high}
	return true
}

// Release undoes an admission that never took effect, so the client can
// retry the batch. Only the stream's most recent admission can be
// released; releasing any other ID is a no-op (a later batch has been
// admitted since, and the ledger cannot regress below it).
func (d *Dedup) Release(stream string, batchID int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.high[stream]; ok && m.high == batchID {
		d.high[stream] = mark{high: m.prev, prev: m.prev}
	}
}

// High returns the highest admitted batch ID for a stream (0 when none).
//
//lint:allow unused -- test support: the pe and stream tests read the ledger
func (d *Dedup) High(stream string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.high[stream].high
}
