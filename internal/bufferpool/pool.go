// Package bufferpool implements the fixed-frame buffer pool archive
// tables read and write their pages through. The pool owns a bounded
// set of page frames (the table's memory budget); Pin fetches a block
// into a frame — reusing a resident frame on a hit, evicting the
// least-recently-used unpinned frame on a miss — and Unpin releases it,
// marking it dirty when the caller mutated the page. Dirty frames are
// written back on eviction and on FlushFile, so the disk image trails
// the pool by at most the dirty set.
//
// Locking: Pool.mu is a leaf in the engine's documented lock order,
// acquired after storage.Table.latch (the archive heap pins pages from
// inside a table's mutation bracket or read latch; see
// internal/analysis/lockorder.go). Pins are strictly call-scoped in the
// engine: every storage-layer operation unpins before it returns, so a
// frame is never held pinned across a task boundary or a read-view
// resolution.
package bufferpool

import (
	"errors"
	"fmt"
	"sync"

	"sstore/internal/page"
)

// Frame is one resident page. Callers may read and write the page only
// between Pin and Unpin.
type Frame struct {
	Page page.Page

	file    *page.File
	block   page.BlockID
	pins    int
	dirty   bool
	lastUse uint64
	valid   bool
}

// ErrNoFrames reports that every frame is pinned; with call-scoped
// pins this means the pool was sized below the handful of frames one
// operation touches.
var ErrNoFrames = errors.New("bufferpool: all frames pinned")

// MinFrames is the floor on pool capacity: a record rewrite pins the
// old record's page and the fill page at once, and restore/checkpoint
// paths want a little slack beyond that.
const MinFrames = 4

// Pool is a fixed-capacity buffer pool. Safe for concurrent use.
type Pool struct {
	mu     sync.Mutex
	frames []*Frame
	byKey  map[frameKey]*Frame
	clock  uint64

	hits       uint64
	misses     uint64
	evictions  uint64
	writebacks uint64
}

type frameKey struct {
	file  *page.File
	block page.BlockID
}

// New creates a pool of the given frame count, clamped to MinFrames.
func New(frames int) *Pool {
	if frames < MinFrames {
		frames = MinFrames
	}
	p := &Pool{byKey: make(map[frameKey]*Frame, frames)}
	for i := 0; i < frames; i++ {
		p.frames = append(p.frames, &Frame{})
	}
	return p
}

// NewBudget creates a pool sized to roughly budget bytes of page
// frames.
func NewBudget(budget int64) *Pool {
	return New(int(budget / page.Size))
}

// Frames returns the pool's capacity in frames.
func (p *Pool) Frames() int { return len(p.frames) }

// Pin fetches (file, block) into a frame and pins it. The caller must
// Unpin the frame when done, before its operation returns.
func (p *Pool) Pin(f *page.File, b page.BlockID) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := frameKey{file: f, block: b}
	if fr, ok := p.byKey[key]; ok {
		p.hits++
		fr.pins++
		p.clock++
		fr.lastUse = p.clock
		return fr, nil
	}
	p.misses++
	fr, err := p.victim()
	if err != nil {
		return nil, err
	}
	if err := f.ReadBlock(b, &fr.Page); err != nil {
		p.retireFrame(fr)
		return nil, err
	}
	p.adoptFrame(fr, key)
	return fr, nil
}

// Append allocates a fresh block of f, pins a frame holding its empty
// page image, and marks it dirty. The block's first on-disk bytes are
// written when the frame is evicted or flushed.
func (p *Pool) Append(f *page.File) (page.BlockID, *Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fr, err := p.victim()
	if err != nil {
		return 0, nil, err
	}
	b := f.Allocate()
	fr.Page.Reset()
	p.adoptFrame(fr, frameKey{file: f, block: b})
	fr.dirty = true
	return b, fr, nil
}

// Unpin releases one pin; dirty records that the caller mutated the
// page.
func (p *Pool) Unpin(fr *Frame, dirty bool) {
	p.mu.Lock()
	if fr.pins > 0 {
		fr.pins--
	}
	if dirty {
		fr.dirty = true
	}
	p.mu.Unlock()
}

// victim returns an unpinned frame, writing back its dirty page and
// unmapping it. Caller holds mu.
func (p *Pool) victim() (*Frame, error) {
	var best *Frame
	for _, fr := range p.frames {
		if fr.pins > 0 {
			continue
		}
		if !fr.valid {
			return fr, nil
		}
		if best == nil || fr.lastUse < best.lastUse {
			best = fr
		}
	}
	if best == nil {
		return nil, ErrNoFrames
	}
	if err := p.writeBack(best); err != nil {
		return nil, err
	}
	p.evictions++
	p.retireFrame(best)
	return best, nil
}

// writeBack flushes a dirty frame to its file. Caller holds mu.
func (p *Pool) writeBack(fr *Frame) error {
	if !fr.valid || !fr.dirty {
		return nil
	}
	if err := fr.file.WriteBlock(fr.block, &fr.Page); err != nil {
		return fmt.Errorf("bufferpool: write-back: %w", err)
	}
	fr.dirty = false
	p.writebacks++
	return nil
}

// retireFrame unmaps a frame. Caller holds mu.
func (p *Pool) retireFrame(fr *Frame) {
	if fr.valid {
		delete(p.byKey, frameKey{file: fr.file, block: fr.block})
	}
	fr.valid = false
	fr.dirty = false
	fr.file = nil
}

// adoptFrame maps a frame to a key and pins it. Caller holds mu.
func (p *Pool) adoptFrame(fr *Frame, key frameKey) {
	fr.file = key.file
	fr.block = key.block
	fr.valid = true
	fr.dirty = false
	fr.pins = 1
	p.clock++
	fr.lastUse = p.clock
	p.byKey[key] = fr
}

// FlushFile writes back every dirty resident frame of f. Frames stay
// resident; pair with f.Sync() for durability.
func (p *Pool) FlushFile(f *page.File) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fr := range p.frames {
		if fr.valid && fr.file == f {
			if err := p.writeBack(fr); err != nil {
				return err
			}
		}
	}
	return nil
}

// Invalidate drops every resident frame of f without write-back; used
// when the file's contents are being discarded (truncate, restore).
// Panics if any of f's frames is still pinned — a pin outliving the
// operation that took it is an engine bug.
func (p *Pool) Invalidate(f *page.File) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fr := range p.frames {
		if fr.valid && fr.file == f {
			if fr.pins > 0 {
				panic("bufferpool: Invalidate with pinned frame")
			}
			p.retireFrame(fr)
		}
	}
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Stats returns the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Hits: p.hits, Misses: p.misses, Evictions: p.evictions, Writebacks: p.writebacks}
}
