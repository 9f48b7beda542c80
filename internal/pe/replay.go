package pe

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"sstore/internal/ee"
	"sstore/internal/recovery"
	"sstore/internal/storage"
	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/wal"
)

// This file is the engine's replay surface: the recovery.Engine
// implementation plus the machinery that lets serial replay of the
// sharded command logs reproduce a live schedule's state.
//
// During live execution a produced batch either travels inside its
// consumer task (cross-partition relocation) or sits briefly in the
// producer's stream table protected by front-of-queue scheduling —
// either way, a TE only ever sees its *own* batch in its input stream.
// Serial strong replay cannot reproduce that schedule: border records
// replay ahead of the interior records that consume them, so produced
// batches would pile up in stream tables and a replayed TE scanning
// its input stream would read its neighbors' tuples. The replayStash
// restores the invariant: while PE triggers are disabled, every stream
// append a replayed TE commits is swept out of the table into the
// stash, and handed back as traveling rows when the consumer's own log
// record replays.

// pendingBatch is a batch whose consumers recovery has yet to run:
// parked in the replay stash, or recovered by the snapshot into a
// stream table. It remembers the rows, the partition whose table they
// were extracted from and, for a stash entry, how many consumer records
// have yet to take the batch (a fan-out stream's batch is consumed by
// one logged TE per consumer, each of which needs the rows) and which
// consumers already took it — so a crash that logged only some of a
// fan-out's consumers re-fires exactly the missing ones.
type pendingBatch struct {
	stream.Batch
	pid   int
	refs  int
	taken map[string]bool
}

// replayStash holds batches produced during strong replay whose
// consumers have not replayed yet, plus the set of streams already
// swept out of the tables.
type replayStash struct {
	mu    sync.Mutex
	m     map[batchKey]pendingBatch
	swept map[string]bool
}

func newReplayStash() *replayStash {
	return &replayStash{m: make(map[batchKey]pendingBatch), swept: make(map[string]bool)}
}

// put parks batch b, extracted from partition pid's table, for refs
// consumer records to take.
func (s *replayStash) put(b stream.Batch, pid int, refs int) {
	if refs < 1 {
		refs = 1
	}
	s.mu.Lock()
	s.m[keyOf(b)] = pendingBatch{Batch: b, pid: pid, refs: refs, taken: make(map[string]bool)}
	s.mu.Unlock()
}

// take hands the batch's rows to one consumer's replay, recording
// which consumer took it; the entry is removed once every consumer
// has taken it.
func (s *replayStash) take(k batchKey, sp string) []types.Row {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[k]
	if !ok {
		return nil
	}
	b.refs--
	b.taken[sp] = true
	if b.refs <= 0 {
		delete(s.m, k)
	} else {
		s.m[k] = b
	}
	return b.Rows
}

// sweepOnce reports whether the stream still needs its table sweep,
// marking it swept.
func (s *replayStash) sweepOnce(stream string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.swept[stream] {
		return false
	}
	s.swept[stream] = true
	return true
}

// drain empties the stash, returning every parked batch in (stream,
// batchID) order: drain feeds replay's re-fire pass, and the stash
// map's iteration order must not leak into the replayed schedule.
func (s *replayStash) drain() []pendingBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]pendingBatch, 0, len(s.m))
	for _, b := range s.m {
		out = append(out, b)
	}
	s.m = make(map[batchKey]pendingBatch)
	slices.SortFunc(out, comparePending)
	return out
}

// comparePending orders batches by (stream, batch ID).
func comparePending(a, b pendingBatch) int {
	return cmp.Or(strings.Compare(a.Stream, b.Stream), cmp.Compare(a.ID, b.ID))
}

// LoadSnapshot implements recovery.Engine: it restores the latest
// committed checkpoint generation into every partition, returning the
// generation's commit-sequence stamp. The manifest names the
// generation, so a checkpoint torn between per-partition snapshot
// writes can never load partitions at mixed stamps. No SnapshotDir or
// no manifest means no checkpoint was ever committed: it returns 0 and
// touches no partition.
//
//sstore:deterministic
func (e *Engine) LoadSnapshot() (uint64, error) {
	if e.opts.SnapshotDir == "" {
		return 0, nil
	}
	stamp, committed, err := wal.ReadSnapshotManifest(e.opts.SnapshotDir)
	if err != nil || !committed {
		return 0, err
	}
	for _, p := range e.parts {
		if err := e.onPartition(p, func(p *partition) error {
			return p.restore(e.opts.SnapshotDir, stamp)
		}); err != nil {
			return 0, err
		}
	}
	// Remember the stamp for Recover: the commit sequence must re-arm
	// past it even when compaction has emptied the logs.
	e.snapLSN = stamp
	return stamp, nil
}

// SetPETriggersEnabled implements recovery.Engine.
func (e *Engine) SetPETriggersEnabled(enabled bool) { e.peTriggersOn.Store(enabled) }

// ReplayRecord implements recovery.Engine: it re-executes one logged
// TE synchronously without re-logging it. Replay is client-driven, as
// in H-Store: "the log is read by the client and transactions are
// submitted sequentially ... each transaction must be confirmed as
// committed before the next can be sent" (§4.4) — so each replayed
// record pays one client round trip. TEs re-derived inside the engine
// by PE triggers (weak recovery's interior work) pay none, which is
// why weak recovery also *recovers* faster (Figure 9b).
//
//sstore:deterministic
func (e *Engine) ReplayRecord(rec *wal.Record) error {
	if e.link != nil {
		e.link.RoundTrip()
	}
	pid := rec.Partition
	part := e.part(pid)
	if part == nil {
		return fmt.Errorf("pe: log record for partition %d, which this node does not own", pid)
	}
	// The reply channel stays in a local: the partition recycles the
	// task the moment it retires, so t must not be touched after push.
	reply := make(chan callResult, 1)
	t := getTask()
	t.sp = rec.SP
	t.params = rec.Params
	t.in.ID = rec.BatchID
	t.kind = rec.Kind
	t.noLog = true
	t.reply = reply
	switch rec.Kind {
	case wal.KindBorder, wal.KindHandoff:
		// Border and hand-off records are self-contained: both carry
		// their rows (a hand-off's upstream TE committed on another
		// node, whose log is not ours to read). Replay re-admits the
		// batch on the partition's ledger, so a post-recovery re-send —
		// or the sending node's re-delivery — is suppressed.
		t.in = stream.Batch{Stream: e.spInput[rec.SP], ID: rec.BatchID, Rows: rec.Batch}
		part.ledger.Admit(t.in.Stream, t.in.ID)
	case wal.KindInterior:
		t.in.Stream = e.spInput[rec.SP]
		// Under strong recovery the upstream TE replayed with PE
		// triggers disabled, so its output batch is parked in the
		// replay stash (or, if it predates the crash snapshot, in
		// some partition's stream table). Hand the rows to the
		// consumer task; it re-enters them at the logged execution
		// site inside the TE.
		if t.in.Stream != "" {
			t.in.Rows = e.takeReplayBatch(keyOf(t.in), rec.SP)
		}
	}
	if !part.sched.PushBack(t) {
		putTask(t)
		return fmt.Errorf("pe: engine closed")
	}
	r := <-reply
	return r.err
}

// takeReplayBatch produces the traveling rows for a replayed interior
// TE. The stream's pending batches are first swept out of the tables
// (snapshot-recovered batches included), so the consuming TE sees its
// input stream holding nothing but its own batch — the invariant live
// scheduling maintains. The stash is created lazily so a recovery
// driver invoked directly on the engine (bypassing Engine.Recover)
// still replays correctly.
func (e *Engine) takeReplayBatch(k batchKey, sp string) []types.Row {
	if e.stash == nil {
		e.stash = newReplayStash()
	}
	e.sweepStreamToStash(k.stream)
	return e.stash.take(k, sp)
}

// sweepStreamToStash moves every pending batch of one stream, on every
// partition, from the table into the replay stash. The sweep runs once
// per stream per recovery: with PE triggers disabled, nothing can
// repopulate the tables afterwards outside the stash path (stashed
// rows re-enter a table only inside a consuming TE, which garbage-
// collects them at commit).
func (e *Engine) sweepStreamToStash(streamKey string) {
	if !e.stash.sweepOnce(streamKey) {
		return
	}
	refs := len(e.consumers[streamKey])
	for _, p := range e.parts {
		_ = e.onPartition(p, func(p *partition) error {
			tbl, ok := p.cat.Lookup(streamKey)
			if !ok {
				return nil
			}
			for _, id := range storage.PendingBatches(tbl) {
				if rows := takeBatch(tbl, id); len(rows) > 0 {
					e.stash.put(stream.Batch{Stream: streamKey, ID: id, Rows: rows}, p.id, refs)
				}
			}
			return nil
		})
	}
}

// takeBatch removes batch id from tbl, returning its rows; nil when
// the table holds none.
func takeBatch(tbl *storage.Table, id int64) []types.Row {
	rows := storage.BatchRows(tbl, id)
	if len(rows) > 0 {
		storage.DeleteBatch(tbl, id, nil)
	}
	return rows
}

// stashAppends parks a replayed TE's produced batches in the replay
// stash; the partition goroutine calls it from afterCommit in place of
// trigger dispatch while strong replay has PE triggers disabled.
func (p *partition) stashAppends(t *task, appends []ee.StreamAppend) {
	p.forEachProduced(t, appends, func(b stream.Batch, consumers []string) {
		if tbl, ok := p.cat.Lookup(b.Stream); ok {
			if b.Rows = takeBatch(tbl, b.ID); len(b.Rows) > 0 {
				// One take per consumer: each consumer's logged TE
				// replays against the same batch.
				p.eng.stash.put(b, p.id, len(consumers))
			}
		}
	})
}

// consumersOf resolves a stream's firing targets: its PE-trigger
// consumers, or (for a border stream) its border SP.
func (e *Engine) consumersOf(streamKey string) []string {
	if cs := e.consumers[streamKey]; len(cs) > 0 {
		return cs
	}
	if sp := e.borderConsumer(streamKey); sp != "" {
		return []string{sp}
	}
	return nil
}

// appendConsumerTasks appends the consumer TE group for one batch under
// the convention every dispatch path shares: one task per consumer, the
// first carrying the rows and the group's GC refcount.
func appendConsumerTasks(ts []*task, consumers []string, b stream.Batch) []*task {
	ts = slices.Grow(ts, len(consumers))
	for i, c := range consumers {
		ct := getTask()
		ct.sp = c
		ct.params = types.Row{types.NewInt(b.ID)}
		ct.in = stream.Batch{Stream: b.Stream, ID: b.ID}
		ct.kind = wal.KindInterior
		if i == 0 {
			ct.in.Rows = b.Rows
			ct.gcRefs = len(consumers)
		}
		ts = append(ts, ct)
	}
	return ts
}

// FirePendingStreamTriggers implements recovery.Engine: every batch
// still pending — parked in the replay stash (produced during replay,
// consumer never logged) or sitting in a stream table (recovered by
// the snapshot) — is re-fired through its consumers, run to
// completion. Batches are fired in ascending ID order per stream,
// routed by PartitionBy exactly like live dispatch, with the rows
// traveling inside the first consumer task — so consumers never see a
// neighbor batch in their input stream and keyed data lands on the
// partition that owns it. For a fan-out batch whose records partially
// survived the crash, only the consumers that did NOT already replay
// are fired; re-firing a replayed one would double-apply it.
//
//sstore:deterministic
func (e *Engine) FirePendingStreamTriggers() error {
	var all []pendingBatch
	if e.stash != nil {
		all = e.stash.drain()
	}
	for _, p := range e.parts {
		err := e.onPartition(p, func(p *partition) error {
			for _, tbl := range p.cat.StreamsWithData() {
				key := strings.ToLower(tbl.Name())
				if len(e.consumersOf(key)) == 0 {
					continue
				}
				for _, id := range storage.PendingBatches(tbl) {
					if rows := takeBatch(tbl, id); len(rows) > 0 {
						all = append(all, pendingBatch{Batch: stream.Batch{Stream: key, ID: id, Rows: rows}, pid: p.id})
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	slices.SortFunc(all, comparePending)
	perPart := make(map[int][]*task)
	// park puts a batch's rows back in its source partition's table.
	park := func(pb pendingBatch) error {
		return e.onPartition(e.part(pb.pid), func(p *partition) error {
			return p.placeMovedBatch(pb.Batch, nil)
		})
	}
	for _, pb := range all {
		var remaining []string
		for _, c := range e.consumersOf(pb.Stream) {
			if pb.taken == nil || !pb.taken[c] {
				remaining = append(remaining, c)
			}
		}
		target := pb.pid
		if e.opts.PartitionBy != nil && e.nglobal > 1 {
			target = wrapPartition(e.opts.PartitionBy(pb.Stream, pb.Rows), e.nglobal)
		}
		if len(remaining) == 0 {
			// Every consumer of this batch already replayed (possible
			// only with duplicate records): park the rows back in the
			// table rather than dropping them.
			if err := park(pb); err != nil {
				return err
			}
			continue
		}
		if e.part(target) == nil {
			// The batch routes to a partition another node owns: the
			// remote re-dispatch path. Park the rows back in the source
			// partition's table — the sender-side retained copy — then
			// hand the batch to the transport. The receiving node's
			// ledger suppresses re-deliveries it already committed (its
			// ack deletes the parked copy), so a restart loop cannot
			// double-apply the batch.
			if err := park(pb); err != nil {
				return err
			}
			if _, err := e.transport.Deliver(pb.pid, target, pb.Batch); err != nil {
				return err
			}
			continue
		}
		perPart[target] = appendConsumerTasks(perPart[target], remaining, pb.Batch)
		// Keep the target's ledger ahead of the batches fired onto it.
		// The loop runs in (stream, batchID) order, so each admission
		// raises the stream's high on that partition or is already
		// covered by it.
		e.part(target).ledger.Admit(pb.Stream, pb.ID)
	}
	// Push in partition-index order: this sits on the replay path,
	// where map-iteration order must never reach an effect.
	for _, p := range e.parts {
		if ts := perPart[p.id]; len(ts) > 0 {
			p.sched.PushFrontBatch(ts)
		}
	}
	return e.Drain()
}

// Recover runs crash recovery per the configured mode over the
// sharded command logs, then re-arms the global commit sequence past
// everything already logged. Call before admitting traffic.
//
//sstore:deterministic
func (e *Engine) Recover() error {
	e.loggingOn.Store(false)
	e.stash = newReplayStash()
	defer func() {
		e.stash = nil
		e.loggingOn.Store(true)
	}()
	maxLSN, err := recovery.Recover(e.opts.Recovery, e.opts.LogPath, e)
	if err != nil {
		return err
	}
	if err := e.Drain(); err != nil {
		return err
	}
	if e.logs != nil {
		// Re-arm past both the highest sequence number the replay
		// observed in the logs (including records its filters
		// skipped) and the snapshot stamp: after a checkpoint
		// compacted the logs, the stamp alone records how far the
		// sequence had advanced, and a commit stamped at or below it
		// would be silently skipped by the next recovery.
		if e.snapLSN > maxLSN {
			maxLSN = e.snapLSN
		}
		e.logs.SetNextSeq(maxLSN + 1)
	}
	return nil
}
