package pe

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sstore/internal/bufferpool"
	"sstore/internal/storage"
	"sstore/internal/stream"
	"sstore/internal/wal"
)

// This file is the partition as the unit of durability, the H-Store
// site of §3.1: each partition owns its command log and the reply gate
// in front of it, the exactly-once ledger of the batches it admits, its
// archive site, and its share of every checkpoint generation. The
// engine keeps only what spans partitions: the global commit sequence,
// the checkpoint barrier that cuts it, and the generation manifest.

// durable is the durability state a partition embeds.
type durable struct {
	// log is this partition's command log (nil when logging is off);
	// lsn is the highest LSN the partition has appended to it
	// (dispatcher goroutine only). release, non-nil only under
	// SyncGroup, holds client-visible replies until the log is durable
	// at the lsn they were produced behind (see release.go).
	log     *wal.Logger
	lsn     uint64
	release *releaseQueue

	// ledger is the exactly-once ledger of the batches admitted on this
	// partition: ingested border batches routed here, hand-offs from
	// other nodes, replayed border and hand-off records, and recovery
	// re-fires. Batch IDs must increase per stream on one partition,
	// which a PartitionBy keyed on something every tuple of a batch
	// shares guarantees. Client, recovery and partition goroutines all
	// touch it; stream.Dedup is safe for concurrent use.
	ledger *stream.Dedup

	// archSite is the partition's disk-backed heap site (buffer pool +
	// page-file directory), materialized by archiveSite on the first
	// CREATE ARCHIVE TABLE; nil until then. Partition goroutine only.
	archSite *storage.ArchiveSite
}

// attachLog wires the partition to its command log; under SyncGroup
// replies then leave through the release queue the log's durability
// callback drains.
func (p *partition) attachLog(log *wal.Logger, policy wal.SyncPolicy) {
	p.log = log
	if policy == wal.SyncGroup {
		p.release = &releaseQueue{}
		p.log.OnDurable(p.release.release)
	}
}

// logged reports whether the task's TE is command-logged.
func (p *partition) logged(t *task) bool {
	e := p.eng
	return !t.noLog && p.log != nil && e.loggingOn.Load() && e.opts.Recovery.ShouldLog(t.kind)
}

// logCommit appends the TE's command-log record to this partition's
// log per the recovery mode. It runs before Commit so a logged
// transaction is always recoverable (write-ahead); under SyncGroup it
// does not wait for the fsync — the reply waits instead (replyTo).
// Because each partition has its own log, concurrent commits on
// different partitions never contend on a shared mutex or fsync
// queue; the record's global sequence stamp preserves total commit
// order for replay.
//
// A client Call that wrote nothing — no mutation, no stream append —
// is not logged: replaying it would change no state. Its reply still
// parks behind p.lsn, so it never reveals un-durable state early.
func (p *partition) logCommit(t *task, r *spRun) error {
	if !p.logged(t) || (t.kind == wal.KindOLTP && r.tx.Mutations() == 0 && len(r.ectx.Appends) == 0) {
		return nil
	}
	rec := &wal.Record{
		Kind:      t.kind,
		Partition: p.id,
		SP:        t.sp,
		BatchID:   t.in.ID,
		Params:    t.params,
	}
	// Only border and hand-off records carry tuples (upstream backup,
	// §3.2.5). An interior task may also hold rows when its batch was
	// relocated across partitions, but logging them would be pure log
	// volume: strong-recovery replay re-derives the rows from the
	// upstream record and hands them over through the replay stash. A
	// hand-off's upstream record lives on ANOTHER node's log, so its
	// rows must be logged here for this node's recovery to stay local.
	if t.kind == wal.KindBorder || t.kind == wal.KindHandoff {
		rec.Batch = t.in.Rows
	}
	return p.appendLog(rec)
}

// appendLog appends one record to the partition's log and advances the
// LSN that later replies wait for.
func (p *partition) appendLog(rec *wal.Record) error {
	lsn, err := p.log.AppendAsync(rec)
	if err != nil {
		return err
	}
	p.lsn = lsn
	return nil
}

// releaseBorderAdmission runs after a border or hand-off TE's body
// aborted and rolled back, before logCommit was ever attempted: the
// rollback removed the batch's rows from the input stream and nothing
// reached the log, so the batch left no trace — but its admission
// still sits in this partition's ledger, where it would reject the
// client's retry (or the sending node's re-delivery) of the very same
// batch as a duplicate. Releasing the admission restores the
// re-delivery contract: abort → retry → commit.
//
// The ledger is a high-water mark, so only the most recent admission
// per stream can actually be released (stream.Dedup.Release): the retry
// guarantee holds for an injector that resolves each batch before
// admitting later IDs on the same (stream, partition) — the sync and
// retry-loop clients. A pipelined injector that runs past an abort
// cannot reclaim the hole. It does not run on a post-log commit
// failure: the record's bytes may have reached the file even when the
// append reported an error, and a replayed-plus-retried batch would
// apply twice.
func (p *partition) releaseBorderAdmission(t *task) {
	if (t.kind != wal.KindBorder && t.kind != wal.KindHandoff) || t.in.Stream == "" {
		return
	}
	p.ledger.Release(t.in.Stream, t.in.ID)
}

// defaultArchiveBudget is the per-partition buffer-pool budget when
// Options.ArchiveMemoryBudget is zero: enough to keep a hot working
// set resident while still exercising eviction in tests.
const defaultArchiveBudget = 4 << 20

// archiveSite is the catalog's archive provider: it materializes (once)
// the partition's archive site — the engine's shared page-file
// directory plus a buffer pool holding this partition's even share of
// the archive memory budget. CREATE ARCHIVE TABLE runs on the partition
// goroutine, so the site needs no lock; the shared directory resolves
// once for the whole engine (Engine.archDir).
func (p *partition) archiveSite() (*storage.ArchiveSite, error) {
	if p.archSite != nil {
		return p.archSite, nil
	}
	dir, err := p.eng.archDir()
	if err != nil {
		return nil, err
	}
	per := p.eng.opts.ArchiveMemoryBudget / int64(len(p.eng.parts))
	if per <= 0 {
		per = defaultArchiveBudget
	}
	p.archSite = &storage.ArchiveSite{
		Pool: bufferpool.NewBudget(per),
		Dir:  dir,
		Tag:  fmt.Sprintf("p%d", p.id),
	}
	return p.archSite, nil
}

// resolveArchiveDir is Engine.archDir's body: Options.ArchiveDir, or a
// temporary directory Close removes.
func (e *Engine) resolveArchiveDir() (string, error) {
	if dir := e.opts.ArchiveDir; dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", fmt.Errorf("pe: archive dir: %w", err)
		}
		return dir, nil
	}
	dir, err := os.MkdirTemp("", "sstore-archive-")
	if err != nil {
		return "", fmt.Errorf("pe: archive dir: %w", err)
	}
	e.archTmp = dir
	return dir, nil
}

// closeArchives flushes and closes every partition's archive page
// files, then removes an auto-created archive directory. Close calls it
// once every partition goroutine has exited, so nothing races the
// tables.
func (e *Engine) closeArchives() error {
	var firstErr error
	for _, p := range e.parts {
		for _, t := range p.cat.Tables() {
			if !t.IsArchive() {
				continue
			}
			if err := t.CloseArchive(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if e.archTmp != "" {
		//lint:allow errdrop -- best-effort temp-dir cleanup on shutdown
		os.RemoveAll(e.archTmp)
	}
	return firstErr
}

// genFile names one of this partition's files in checkpoint generation
// stamp under dir: the row snapshot when table is empty, else that
// archive table's page-file copy. Every name starts "snapshot.p<id>"
// and ends ".g<stamp>", so the manifest commits them together and
// cleanupGenerations ages them out together.
func (p *partition) genFile(dir, table string, stamp uint64) string {
	name := fmt.Sprintf("snapshot.p%d.g%d", p.id, stamp)
	if table != "" {
		name = fmt.Sprintf("snapshot.p%d.%s.pages.g%d", p.id, strings.ToLower(table), stamp)
	}
	return filepath.Join(dir, name)
}

// checkpoint writes the partition's share of generation stamp: the row
// snapshot, plus a copy of each archive table's page file (whose rows
// the snapshot records only as a count). The caller holds the partition
// parked at the checkpoint barrier, so catalog and page files are
// stable; the generation counts only once the engine's manifest
// commits it.
func (p *partition) checkpoint(dir string, stamp uint64) error {
	if err := wal.WriteSnapshot(p.genFile(dir, "", stamp), stamp, p.cat.Tables()); err != nil {
		return err
	}
	for _, t := range p.cat.Tables() {
		if !t.IsArchive() {
			continue
		}
		if err := t.ArchiveCheckpoint(p.genFile(dir, t.Name(), stamp)); err != nil {
			return fmt.Errorf("pe: archive checkpoint %s: %w", t.Name(), err)
		}
	}
	return nil
}

// restore loads the partition's share of committed generation stamp:
// the row snapshot, then the page-file copy of every archive table the
// snapshot announced archived rows for, so WAL redo replays against
// complete state. Runs on the partition goroutine.
func (p *partition) restore(dir string, stamp uint64) error {
	path := p.genFile(dir, "", stamp)
	if _, err := wal.LoadSnapshot(path, p.cat.Lookup); err != nil {
		// A committed generation is complete by construction; a missing
		// member means external damage, and loading around it would
		// silently drop this partition's checkpointed state.
		return fmt.Errorf("pe: snapshot generation %d, %s: %w", stamp, path, err)
	}
	for _, t := range p.cat.Tables() {
		if !t.ArchiveAwaitingPages() {
			continue
		}
		if err := t.ArchiveRestore(p.genFile(dir, t.Name(), stamp)); err != nil {
			return fmt.Errorf("pe: archive restore %s: %w", t.Name(), err)
		}
	}
	return nil
}

// cleanupGenerations best-effort removes the files of superseded
// snapshot generations once a new manifest has committed.
func cleanupGenerations(dir string, keep uint64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keepSuffix := fmt.Sprintf(".g%d", keep)
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, "snapshot.p") || strings.HasSuffix(name, keepSuffix) {
			continue
		}
		os.Remove(filepath.Join(dir, name))
	}
}

// groundQueuedBatches materializes batches traveling inside this
// partition's queued carrying tasks into its stream tables. The
// checkpoint barrier calls it with every partition parked: a batch
// relocated by a TE that committed behind another partition's barrier
// exists only in the carrying task, so without grounding the snapshot
// would miss a durably-committed (and soon compacted-away) batch. The
// GC refcount moves to pendingGC and the task sheds its payload — the
// consumer then finds the rows in the table, exactly as if the batch
// had been produced locally.
func (p *partition) groundQueuedBatches() error {
	var firstErr error
	p.sched.ForEachQueued(func(t *task) {
		if !t.carriesRelocated() {
			return
		}
		if err := p.placeMovedBatch(t.in, nil); err != nil {
			// Roll a partial insert back out of the table: the task
			// keeps its payload, so the batch is neither duplicated
			// (when the consumer later places it) nor lost (the
			// checkpoint aborts on this error).
			p.gcBatch(keyOf(t.in))
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		if t.gcRefs > 0 {
			p.pendingGC[keyOf(t.in)] = t.gcRefs
		}
		t.in.Rows = nil
		t.gcRefs = 0
	})
	return firstErr
}
