package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// LogSet shards the command log one file per partition, the way
// H-Store logs per execution site (§3.1): each partition appends to
// its own Logger — its own file, its own mutex, its own group-commit
// flusher — so durability-on configurations scale with partitions
// instead of serializing on one fsync queue. Every record is stamped
// from one lock-free global commit sequence, so the per-partition
// files merge back into total commit order for strong recovery.
type LogSet struct {
	loggers []*Logger
	// byPid maps a global partition ID to its logger; on a cluster
	// node the set covers only the node's own partitions (the sparse
	// case), so durability and recovery stay node-local.
	byPid map[int]*Logger
	seq   atomic.Uint64
}

// SetOptions configures a LogSet.
type SetOptions struct {
	// Path is the log location: an existing directory (partition logs
	// become <dir>/cmd-p<N>.log) or a file-name prefix (partition
	// logs become <path>.p<N>).
	Path string
	// Partitions is the number of per-partition logs.
	Partitions int
	// Policy selects the durability mode, per Logger.
	Policy SyncPolicy
	// SegmentBytes rotates each partition's log into bounded segments,
	// per Logger.Options: sealed segments age out whole during
	// compaction instead of being rewritten. Zero keeps one file per
	// partition.
	SegmentBytes int64
	// PartitionIDs, when non-nil, opens logs for exactly these global
	// partition IDs instead of the dense 0..Partitions-1 range: a
	// cluster node logs only the partitions it owns, under their
	// global IDs, so shard files stay addressable cluster-wide while
	// each node's recovery replays only local state.
	PartitionIDs []int
}

// PartitionPath maps (base, partition) to the partition's log file:
// under a directory base the file is <base>/cmd-p<N>.log, under a
// prefix base it is <base>.p<N>.
func PartitionPath(base string, pid int) string {
	if st, err := os.Stat(base); err == nil && st.IsDir() {
		return filepath.Join(base, fmt.Sprintf("cmd-p%d.log", pid))
	}
	return fmt.Sprintf("%s.p%d", base, pid)
}

// OpenSet opens one Logger per partition under the base path, all
// drawing LSNs from the set's shared commit sequence.
func OpenSet(opts SetOptions) (*LogSet, error) {
	pids := opts.PartitionIDs
	if pids == nil {
		if opts.Partitions <= 0 {
			opts.Partitions = 1
		}
		pids = make([]int, opts.Partitions)
		for i := range pids {
			pids[i] = i
		}
	}
	s := &LogSet{byPid: make(map[int]*Logger, len(pids))}
	for _, pid := range pids {
		l, err := Open(Options{
			Path:         PartitionPath(opts.Path, pid),
			Policy:       opts.Policy,
			Seq:          &s.seq,
			SegmentBytes: opts.SegmentBytes,
		})
		if err != nil {
			//lint:allow errdrop -- best-effort cleanup; the open error is what the caller needs
			s.Close()
			return nil, err
		}
		s.loggers = append(s.loggers, l)
		s.byPid[pid] = l
	}
	return s, nil
}

// Append stamps the record with the next global sequence number and
// appends it to the partition's log, blocking until durable per the
// sync policy. Appends to different partitions proceed in parallel —
// no shared lock, no shared fsync queue.
func (s *LogSet) Append(pid int, rec *Record) (uint64, error) {
	l, ok := s.byPid[pid]
	if !ok {
		return 0, fmt.Errorf("wal: no log for partition %d", pid)
	}
	return l.Append(rec)
}

// Logger returns the partition's log, or nil when the set has none for
// it. A partition engine appends through its own Logger directly and
// registers its OnDurable callback there.
func (s *LogSet) Logger(pid int) *Logger { return s.byPid[pid] }

// WaitDurable blocks until every record appended to any partition's
// log so far is durable, or returns the first log's sticky sync error.
func (s *LogSet) WaitDurable() error {
	for _, l := range s.loggers {
		if err := l.WaitDurable(s.seq.Load()); err != nil {
			return err
		}
	}
	return nil
}

// LastSeq returns the most recently assigned global sequence number
// (0 when none).
func (s *LogSet) LastSeq() uint64 { return s.seq.Load() }

// SetNextSeq positions the global sequence counter; used after replay
// so new commits continue past everything already logged.
func (s *LogSet) SetNextSeq(seq uint64) { s.seq.Store(seq - 1) }

// Stats sums appended records and fsync calls across all partition
// logs.
func (s *LogSet) Stats() (appends, syncs uint64) {
	for _, l := range s.loggers {
		a, y := l.Stats()
		appends += a
		syncs += y
	}
	return appends, syncs
}

// Bytes sums the bytes appended across all partition logs since open —
// a monotonic counter (compaction does not rewind it) that drives the
// automatic-checkpoint policy: checkpoint once the log has grown by a
// configured amount since the last one.
func (s *LogSet) Bytes() uint64 {
	var total uint64
	for _, l := range s.loggers {
		total += l.Bytes()
	}
	return total
}

// CompactBefore truncates every partition's log against the snapshot
// sequence stamp: records at or below keepAfter are reflected in that
// partition's checkpoint and never replay. Each log is rewritten
// independently and atomically; the caller must hold the engine
// quiesced.
func (s *LogSet) CompactBefore(keepAfter uint64) error {
	for _, l := range s.loggers {
		if err := l.CompactBefore(keepAfter); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every partition's log, flushing buffered records.
func (s *LogSet) Close() error {
	var first error
	for _, l := range s.loggers {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// shardSeg splits a shard file suffix into its partition id, accepting
// both a plain shard ("3") and a rotation segment of one ("3.s2" —
// segment files count as evidence the shard exists even when its base
// file aged out during compaction). ok is false for unrelated names.
func shardSeg(rest string) (pid int, ok bool) {
	if pid, err := strconv.Atoi(rest); err == nil {
		return pid, true
	}
	i := strings.Index(rest, ".s")
	if i <= 0 {
		return 0, false
	}
	pid, err := strconv.Atoi(rest[:i])
	if err != nil {
		return 0, false
	}
	k, err := strconv.Atoi(rest[i+2:])
	if err != nil || k <= 0 {
		return 0, false
	}
	return pid, true
}

// SetPaths lists the per-shard log base paths under base in partition
// order: every cmd-p<N>.log / <base>.p<N> shard. A shard rotated into
// segments is recognized by its <shard>.s<k> files and listed once, by
// its base path — OpenReader chains the segments back into one stream,
// even when the base file itself aged out. Shards that were never
// created are simply absent. Names are matched literally (directory
// listing plus prefix check), so a base containing glob metacharacters
// lists its shards correctly.
func SetPaths(base string) ([]string, error) {
	pids := make(map[int]bool)
	shardBase := func(pid int) string { return fmt.Sprintf("%s.p%d", base, pid) }
	if st, err := os.Stat(base); err == nil && st.IsDir() {
		ents, err := os.ReadDir(base)
		if err != nil {
			return nil, fmt.Errorf("wal: list logs: %w", err)
		}
		for _, ent := range ents {
			rest, ok := strings.CutPrefix(ent.Name(), "cmd-p")
			if !ok {
				continue
			}
			// rest is "<pid>.log" or "<pid>.log.s<k>".
			if plain, ok := strings.CutSuffix(rest, ".log"); ok {
				if pid, err := strconv.Atoi(plain); err == nil {
					pids[pid] = true
				}
				continue
			}
			i := strings.Index(rest, ".log.s")
			if i <= 0 {
				continue
			}
			pid, err1 := strconv.Atoi(rest[:i])
			k, err2 := strconv.Atoi(rest[i+len(".log.s"):])
			if err1 == nil && err2 == nil && k > 0 {
				pids[pid] = true
			}
		}
		shardBase = func(pid int) string {
			return filepath.Join(base, fmt.Sprintf("cmd-p%d.log", pid))
		}
	} else {
		ents, err := os.ReadDir(filepath.Dir(base))
		if err != nil {
			if os.IsNotExist(err) {
				return nil, nil
			}
			return nil, fmt.Errorf("wal: list logs: %w", err)
		}
		name := filepath.Base(base)
		for _, ent := range ents {
			rest, ok := strings.CutPrefix(ent.Name(), name+".p")
			if !ok {
				continue
			}
			if pid, ok := shardSeg(rest); ok {
				pids[pid] = true
			}
		}
	}
	order := make([]int, 0, len(pids))
	for pid := range pids {
		order = append(order, pid)
	}
	sort.Ints(order)
	var paths []string
	for _, pid := range order {
		paths = append(paths, shardBase(pid))
	}
	return paths, nil
}

// SetReader k-way merge-streams every log under base by global
// sequence number, reconstructing total commit order across
// partitions while holding only one record per shard in memory.
// Strong recovery replays this merged stream.
type SetReader struct {
	readers []*Reader
	heads   []*Record
	err     error
}

// OpenSetReader opens every log under base for a merged streaming
// read. Empty and absent logs are skipped.
func OpenSetReader(base string) (*SetReader, error) {
	paths, err := SetPaths(base)
	if err != nil {
		return nil, err
	}
	s := &SetReader{}
	for _, p := range paths {
		r, err := OpenReader(p)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			s.Close()
			return nil, fmt.Errorf("wal: read: %w", err)
		}
		rec, rerr := r.Next()
		if rerr == io.EOF {
			r.Close() // empty log (or torn from the first frame)
			continue
		}
		if rerr != nil {
			r.Close()
			s.Close()
			return nil, rerr
		}
		s.readers = append(s.readers, r)
		s.heads = append(s.heads, rec)
	}
	return s, nil
}

// Next returns the record with the lowest sequence number across all
// shards, or io.EOF when every shard is exhausted. A genuine read
// failure on any shard is reported (after the records already merged
// are delivered) rather than read as end-of-log, so a failing disk
// never silently truncates the merged stream.
func (s *SetReader) Next() (*Record, error) {
	best := -1
	for i, h := range s.heads {
		if h == nil {
			continue
		}
		if best < 0 || h.LSN < s.heads[best].LSN {
			best = i
		}
	}
	if best < 0 {
		if s.err != nil {
			return nil, s.err
		}
		return nil, io.EOF
	}
	rec := s.heads[best]
	nxt, err := s.readers[best].Next()
	if err != nil {
		if err != io.EOF && s.err == nil {
			s.err = err
		}
		s.heads[best] = nil
		s.readers[best].Close()
		s.readers[best] = nil
	} else {
		s.heads[best] = nxt
	}
	return rec, nil
}

// Close releases any shards not yet exhausted.
func (s *SetReader) Close() error {
	for i, r := range s.readers {
		if r != nil {
			r.Close()
			s.readers[i] = nil
		}
	}
	return nil
}

// ReadSetMerged reads every log under base into memory in merged
// global-sequence order; replay paths should prefer streaming with
// OpenSetReader.
func ReadSetMerged(base string) ([]*Record, error) {
	r, err := OpenSetReader(base)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var recs []*Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}
