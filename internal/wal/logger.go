package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// SyncPolicy controls when appended records become durable.
type SyncPolicy uint8

const (
	// SyncEachCommit fsyncs after every append: every commit is
	// individually durable before it is acknowledged. This is the
	// "no group commit" configuration of the paper's Figure 9a.
	SyncEachCommit SyncPolicy = iota
	// SyncGroup is pipelined group commit (H-Store's group commit,
	// §3.1): AppendAsync only writes the record and returns its LSN,
	// and a per-log flusher fsyncs whenever appended records are not
	// yet durable — with the fsync outside the append mutex, so the
	// group synced next is whatever arrived during the previous fsync.
	// Callers learn durability from WaitDurable and the OnDurable
	// callback; Append still blocks until its record is durable. A
	// failed sync is sticky: nothing past the last good sync is ever
	// reported durable, and later appends fail.
	SyncGroup
	// SyncNone buffers writes and never fsyncs explicitly (flush on
	// close); used when durability is disabled for throughput
	// experiments ("logging disabled unless otherwise specified",
	// §4).
	SyncNone
)

// Options configures a Logger.
type Options struct {
	// Path is the log file location.
	Path string
	// Policy selects the durability mode.
	Policy SyncPolicy
	// Seq, when non-nil, is a sequence counter shared with other
	// loggers (a LogSet): records appended to any of them draw LSNs
	// from one lock-free global commit sequence, so total commit
	// order survives sharding the log. Nil gives the logger a private
	// counter (a standalone, unsharded log).
	Seq *atomic.Uint64
	// SegmentBytes, when positive, rotates the log into bounded
	// segments: once the active segment reaches this many bytes it is
	// sealed — flushed, synced, closed — and appends move to the next
	// segment file (<Path> is segment 0, <Path>.s<k> thereafter).
	// Sealed segments are immutable, so CompactBefore ages fully
	// checkpointed ones out by deleting whole files instead of
	// rewriting, and replay treats any malformed record in a sealed
	// segment as corruption — a torn tail is legal only in the final
	// (active) segment. Zero keeps the log in one file.
	SegmentBytes int64
}

// segPath names segment k of a log: the base path itself for segment
// 0, <base>.s<k> for every later segment.
func segPath(base string, k int) string {
	if k == 0 {
		return base
	}
	return base + ".s" + strconv.Itoa(k)
}

// segFile is one existing on-disk segment of a log.
type segFile struct {
	k    int
	path string
}

// logSegments lists the log's existing segment files in index order:
// the base file (segment 0) if present, then every <base>.s<k>.
// Aged-out segments leave gaps, which is fine — segment indexes only
// ever grow, so the surviving files still sort into LSN order.
func logSegments(base string) ([]segFile, error) {
	var segs []segFile
	if st, err := os.Stat(base); err == nil && st.Mode().IsRegular() {
		segs = append(segs, segFile{k: 0, path: base})
	}
	dir, name := filepath.Split(base)
	if dir == "" {
		dir = "."
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return segs, nil
		}
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	prefix := name + ".s"
	for _, ent := range ents {
		rest, ok := strings.CutPrefix(ent.Name(), prefix)
		if !ok {
			continue
		}
		k, err := strconv.Atoi(rest)
		if err != nil || k <= 0 {
			continue
		}
		segs = append(segs, segFile{k: k, path: filepath.Join(dir, ent.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].k < segs[j].k })
	return segs, nil
}

// Logger is an append-only command log for one partition (execution
// site). Appends are serialized internally. Under SyncEachCommit the
// appending partition waits for its fsync; under SyncGroup it only
// writes and moves on, and learns durability from the flusher (see
// SyncGroup). Loggers of one engine share a global sequence counter
// through a LogSet, so their files merge back into total commit order.
type Logger struct {
	// syncMu serializes whole syncs against each other and against
	// compaction and close, so the flusher can fsync a file outside mu
	// without the file being swapped or closed underneath it. Lock
	// order: syncMu, then mu.
	syncMu sync.Mutex
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	seq    *atomic.Uint64
	opts   Options

	// Active-segment state: segIdx is the index of the file currently
	// appended to (always the highest existing index), segSize its
	// byte length. Rotation is checked after every append (under
	// SyncGroup, at every group sync).
	segIdx  int
	segSize int64

	// enc is the grow-only encode scratch: records frame themselves
	// into it under mu, and the bytes are handed to the buffered writer
	// before the mutex releases, so one buffer serves every append.
	enc []byte

	// last is the highest LSN written; durable the highest LSN known
	// durable per the policy (published after the OnDurable callback
	// ran, so a WaitDurable that returns implies the callback saw it).
	// failed is the sticky sync error that stops a SyncGroup log.
	// cond (on mu) wakes WaitDurable on every advance or failure.
	last      uint64
	durable   atomic.Uint64
	failed    error
	cond      sync.Cond
	onDurable func(lsn uint64, err error)
	// syncFile fsyncs one file; nil means (*os.File).Sync. Tests
	// replace it to inject sync failures.
	syncFile func(*os.File) error

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	appends uint64
	syncs   uint64
	// bytes counts appended bytes since open, monotonically (rotation
	// and compaction never rewind it); LogSet.Bytes sums it across
	// shards to drive the automatic-checkpoint policy.
	bytes uint64
}

// Open creates or appends to the log file. An existing log should be
// read with OpenReader before opening for writes.
func Open(opts Options) (*Logger, error) {
	// Appends always continue in the highest existing segment — even
	// when rotation is now off — so segment order keeps matching LSN
	// order for readers.
	segIdx := 0
	if segs, err := logSegments(opts.Path); err != nil {
		return nil, err
	} else if len(segs) > 0 {
		segIdx = segs[len(segs)-1].k
	}
	f, err := os.OpenFile(segPath(opts.Path, segIdx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	seq := opts.Seq
	if seq == nil {
		seq = new(atomic.Uint64)
	}
	l := &Logger{
		f:       f,
		w:       bufio.NewWriterSize(f, 1<<16),
		seq:     seq,
		opts:    opts,
		segIdx:  segIdx,
		segSize: st.Size(),
	}
	l.cond.L = &l.mu
	if opts.Policy == SyncGroup {
		l.kick = make(chan struct{}, 1)
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flusher()
	}
	return l, nil
}

// OnDurable registers the logger's completion callback: under
// SyncGroup the flusher calls it after every sync, from its own
// goroutine with no lock held, with the LSN now durable — or, once a
// sync failed, with the last durable LSN and the sticky error. Calls
// are serialized and their LSNs never decrease. Register before the
// first append.
func (l *Logger) OnDurable(fn func(lsn uint64, err error)) {
	l.mu.Lock()
	l.onDurable = fn
	l.mu.Unlock()
}

// Append assigns the record the next sequence number, writes it, and
// blocks until it is durable per the sync policy. It returns the
// assigned LSN.
func (l *Logger) Append(rec *Record) (uint64, error) {
	lsn, err := l.AppendAsync(rec)
	if err != nil || l.opts.Policy != SyncGroup {
		return lsn, err
	}
	return lsn, l.WaitDurable(lsn)
}

// AppendAsync assigns the record the next sequence number and writes
// it. Under SyncGroup it returns without waiting for durability — see
// WaitDurable and OnDurable — and fails once a sync has
// failed; under the other policies it is Append.
func (l *Logger) AppendAsync(rec *Record) (uint64, error) {
	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return 0, err
	}
	// The stamp is lock-free with respect to the other partitions'
	// logs: only this logger's own mutex is held, never a cross-log
	// lock. Taking it under the local mutex keeps LSNs monotonic
	// within the file, which the merge reader relies on.
	rec.LSN = l.seq.Add(1)
	l.appends++
	buf := rec.encode(l.enc[:0])
	l.enc = buf
	if _, err := l.w.Write(buf); err != nil {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.last = rec.LSN
	l.segSize += int64(len(buf))
	l.bytes += uint64(len(buf))
	// Under SyncGroup the flusher seals full segments (syncGroup).
	if l.opts.Policy != SyncGroup && l.rotateDue() {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	switch l.opts.Policy {
	case SyncEachCommit:
		err := l.flushAndSyncLocked()
		if err == nil {
			l.durable.Store(rec.LSN)
		}
		l.mu.Unlock()
		return rec.LSN, err
	case SyncNone:
		l.durable.Store(rec.LSN)
		l.mu.Unlock()
		return rec.LSN, nil
	default: // SyncGroup
		l.mu.Unlock()
		select {
		case l.kick <- struct{}{}:
		default:
		}
		return rec.LSN, nil
	}
}

// WaitDurable blocks until every record this logger has appended at or
// below lsn is durable, or returns the sticky sync error that stopped
// the log first. The other policies settle durability inside Append,
// so it returns at once for them.
func (l *Logger) WaitDurable(lsn uint64) error {
	if l.opts.Policy != SyncGroup || l.durable.Load() >= lsn {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn = min(lsn, l.last)
	for l.durable.Load() < lsn {
		if l.failed != nil {
			return l.failed
		}
		l.cond.Wait()
	}
	return nil
}

func (l *Logger) fsync(f *os.File) error {
	if l.syncFile != nil {
		return l.syncFile(f)
	}
	return f.Sync()
}

func (l *Logger) flushAndSyncLocked() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	l.syncs++
	if err := l.fsync(l.f); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// rotateDue reports whether the active segment has reached the
// rotation threshold.
func (l *Logger) rotateDue() bool {
	return l.opts.SegmentBytes > 0 && l.segSize >= l.opts.SegmentBytes
}

// rotateLocked seals the active segment — flush, sync, close, so a
// sealed file is always complete and durable — and opens the next one.
// Readers treat sealed segments strictly: after this point a malformed
// record in the old file is corruption, never a tolerable torn tail.
func (l *Logger) rotateLocked() error {
	if err := l.flushAndSyncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	l.segIdx++
	f, err := os.OpenFile(segPath(l.opts.Path, l.segIdx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	l.f = f
	l.w.Reset(f)
	l.segSize = 0
	return nil
}

// flusher is the SyncGroup sync loop: kicked by appends, it syncs
// until nothing appended is left un-durable, then sleeps. There is no
// timer and no window — an idle log never ticks, and the next group is
// simply whatever arrived during the previous fsync.
func (l *Logger) flusher() {
	defer close(l.done)
	for {
		select {
		case <-l.stop:
			for l.syncGroup() {
			}
			return
		case <-l.kick:
			for l.syncGroup() {
			}
		}
	}
}

// syncGroup makes every record appended so far durable: the buffered
// group is written under mu, then fsynced outside it, so appends keep
// landing in the buffer during the fsync. A full segment is sealed here
// instead, with the group's sync inline under mu — once per segment,
// appends wait out one fsync; the partition never runs one itself. It
// reports whether it synced anything; false also once the log has
// failed.
func (l *Logger) syncGroup() bool {
	l.syncMu.Lock()
	l.mu.Lock()
	upto := l.last
	if l.failed != nil || upto <= l.durable.Load() {
		l.mu.Unlock()
		l.syncMu.Unlock()
		return false
	}
	var err error
	sealed := l.rotateDue()
	if sealed {
		err = l.rotateLocked()
	} else if err = l.w.Flush(); err != nil {
		err = fmt.Errorf("wal: flush: %w", err)
	} else {
		l.syncs++
	}
	f, cb := l.f, l.onDurable
	l.mu.Unlock()
	if err == nil && !sealed {
		if err = l.fsync(f); err != nil {
			err = fmt.Errorf("wal: sync: %w", err)
		}
	}
	if err != nil {
		l.mu.Lock()
		l.failed = err
		l.cond.Broadcast()
		l.mu.Unlock()
		upto = l.durable.Load()
	}
	l.syncMu.Unlock()
	if cb != nil {
		cb(upto, err)
	}
	if err != nil {
		return false
	}
	l.mu.Lock()
	l.durable.Store(upto)
	l.cond.Broadcast()
	l.mu.Unlock()
	return true
}

// Stats reports the number of appended records and fsync calls; the
// Figure 9a experiment compares these across recovery modes.
func (l *Logger) Stats() (appends, syncs uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.syncs
}

// Bytes reports the bytes appended since open (monotonic).
func (l *Logger) Bytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Close makes every appended record durable per the policy (under
// SyncGroup the flusher's last sync runs first, releasing waiters and
// the OnDurable callback), then closes the file. It reports the sticky
// sync failure of a stopped log.
func (l *Logger) Close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.w.Flush()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = l.failed
	}
	return err
}

// CompactBefore discards records with LSN <= keepAfter — everything at
// or below is already reflected in a checkpoint and never replays. The
// caller must hold the engine quiesced (no concurrent Appends).
//
// Sealed segments age out without a rewrite: one fully covered by the
// stamp is deleted whole (O(1) per segment — this is how a segmented
// log stays bounded), one straddling the stamp is rewritten in place,
// and one entirely above it is untouched. The active segment is always
// rewritten; each rewrite streams record by record and is atomic
// (write-temp-then-rename), so a crash mid-compaction leaves the old
// log intact.
func (l *Logger) CompactBefore(keepAfter uint64) error {
	// Hold syncMu too: the flusher must not be fsyncing the file this
	// rewrite renames over.
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: compact flush: %w", err)
	}
	segs, err := logSegments(l.opts.Path)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s.k >= l.segIdx {
			continue // the active segment is handled below
		}
		first, last, err := segmentLSNRange(s.path)
		if err != nil {
			return err
		}
		switch {
		case last <= keepAfter:
			// Fully covered (or empty): drop the whole file.
			if err := os.Remove(s.path); err != nil {
				return fmt.Errorf("wal: drop segment: %w", err)
			}
		case first <= keepAfter:
			if err := compactFile(s.path, keepAfter, true); err != nil {
				return err
			}
		}
	}
	active := segPath(l.opts.Path, l.segIdx)
	if err := compactFile(active, keepAfter, false); err != nil {
		return err
	}
	// Reopen the (renamed-over) active file for appends.
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: compact close: %w", err)
	}
	f, err := os.OpenFile(active, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact reopen: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: compact reopen: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.segSize = st.Size()
	return nil
}

// segmentLSNRange reports the first and last LSN in a sealed segment
// (both zero when it is empty). The read is strict: a sealed segment
// with a malformed record is corruption, and compaction must surface
// it rather than quietly dropping the file's tail.
func segmentLSNRange(path string) (first, last uint64, err error) {
	r, err := openSegment(path, true)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: compact read: %w", err)
	}
	defer r.Close()
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return first, last, nil
		}
		if err != nil {
			return first, last, err
		}
		if first == 0 {
			first = rec.LSN
		}
		last = rec.LSN
	}
}

// compactFile rewrites one log file keeping only records with LSN >
// keepAfter, streaming record by record. The rewrite is atomic and
// durable (write-temp, sync, rename) — the kept records are committed
// transactions not covered by any checkpoint, so a crash around the
// rename must never lose them. sealed selects the strict read mode: rewriting a sealed segment must
// fail on a malformed record instead of truncating at it.
func compactFile(path string, keepAfter uint64, sealed bool) error {
	r, err := openSegment(path, sealed)
	if err != nil {
		return fmt.Errorf("wal: compact read: %w", err)
	}
	tmp := path + ".compact"
	out, err := os.Create(tmp)
	if err != nil {
		r.Close()
		return fmt.Errorf("wal: compact write: %w", err)
	}
	bw := bufio.NewWriterSize(out, 1<<16)
	var scratch []byte
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			r.Close()
			out.Close()
			return fmt.Errorf("wal: compact read: %w", err)
		}
		if rec.LSN <= keepAfter {
			continue
		}
		scratch = rec.encode(scratch[:0])
		if _, err := bw.Write(scratch); err != nil {
			r.Close()
			out.Close()
			return fmt.Errorf("wal: compact write: %w", err)
		}
	}
	r.Close()
	if err := bw.Flush(); err != nil {
		out.Close()
		return fmt.Errorf("wal: compact flush: %w", err)
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return fmt.Errorf("wal: compact sync: %w", err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("wal: compact close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: compact rename: %w", err)
	}
	return nil
}

// Reader streams records out of a log one frame at a time, so replay
// and compaction never need a file-sized allocation. A segmented log
// reads as one stream: the reader chains through the base file and
// every <base>.s<k> in index order. All segments but the last are
// sealed, where a malformed record is reported as corruption; only the
// final (active) segment tolerates a torn or corrupt tail — the
// expected state after a crash — as a clean end-of-log.
type Reader struct {
	f         *os.File
	br        *bufio.Reader
	remaining int64
	lenbuf    [4]byte
	// scratch is the grow-only frame buffer: each frame overwrites the
	// last (decodePayload copies everything it keeps), so a replay
	// stops allocating per record once scratch reaches the log's
	// largest frame.
	scratch []byte
	path    string
	sealed  bool
	pending []string
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// openSegment opens a single segment file, without chaining. sealed
// picks the strict read mode.
func openSegment(path string, sealed bool) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Reader{
		f:         f,
		br:        bufio.NewReaderSize(f, 1<<16),
		remaining: st.Size(),
		path:      path,
		sealed:    sealed,
	}, nil
}

// OpenReader opens a log for streaming record reads, chaining the
// base file and any <base>.s<k> segments into one stream. The caller
// should treat os.IsNotExist errors as an empty log.
func OpenReader(path string) (*Reader, error) {
	segs, err := logSegments(path)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		// Preserve the not-exist contract of a plain open.
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		f.Close()
		return nil, fmt.Errorf("wal: open reader: %s is not a log file", path)
	}
	r, err := openSegment(segs[0].path, len(segs) > 1)
	if err != nil {
		return nil, err
	}
	for _, s := range segs[1:] {
		r.pending = append(r.pending, s.path)
	}
	return r, nil
}

// advance moves the reader to the next pending segment.
func (r *Reader) advance() error {
	r.f.Close()
	path := r.pending[0]
	r.pending = r.pending[1:]
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: read segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: read segment: %w", err)
	}
	r.f = f
	r.br.Reset(f)
	r.remaining = st.Size()
	r.path = path
	r.sealed = len(r.pending) > 0
	return nil
}

// corruptf reports a malformed record in a sealed segment — replay
// must fail loudly here, because unlike the active tail the data was
// known complete when the segment sealed.
func (r *Reader) corruptf(what string) error {
	return fmt.Errorf("wal: sealed segment %s: corrupt record (%s)", r.path, what)
}

// readFrame reads and CRC-verifies the next frame of the current
// segment into the grow-only scratch buffer, returning its payload.
// io.EOF means the current file is exhausted — cleanly, or at a
// tolerated torn tail when the segment is not sealed.
//
//sstore:nomalloc
func (r *Reader) readFrame() ([]byte, error) {
	if r.remaining == 0 {
		return nil, io.EOF
	}
	if r.remaining < 4+1+4 { // too short for any frame
		r.remaining = 0
		if r.sealed {
			//lint:allow hotalloc -- corruption report; terminal
			return nil, r.corruptf("trailing bytes shorter than a frame")
		}
		return nil, io.EOF // torn tail
	}
	if _, err := io.ReadFull(r.br, r.lenbuf[:]); err != nil {
		r.remaining = 0
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			if r.sealed {
				//lint:allow hotalloc -- corruption report; terminal
				return nil, r.corruptf("short read")
			}
			return nil, io.EOF
		}
		//lint:allow hotalloc -- I/O failure report; terminal
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	plen := int64(binary.LittleEndian.Uint32(r.lenbuf[:]))
	if plen <= 0 || plen+8 > r.remaining {
		// Garbage length or a frame claiming more bytes than the file
		// holds.
		r.remaining = 0
		if r.sealed {
			//lint:allow hotalloc -- corruption report; terminal
			return nil, r.corruptf("invalid frame length")
		}
		return nil, io.EOF
	}
	if int64(cap(r.scratch)) < plen+4 {
		//lint:allow hotalloc -- grow-only scratch; amortized zero across a replay
		r.scratch = make([]byte, plen+4)
	}
	buf := r.scratch[:plen+4]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		r.remaining = 0
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			if r.sealed {
				//lint:allow hotalloc -- corruption report; terminal
				return nil, r.corruptf("short read")
			}
			return nil, io.EOF
		}
		//lint:allow hotalloc -- I/O failure report; terminal
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	payload := buf[:plen]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[plen:]) {
		r.remaining = 0
		if r.sealed {
			//lint:allow hotalloc -- corruption report; terminal
			return nil, r.corruptf("CRC mismatch")
		}
		return nil, io.EOF
	}
	r.remaining -= 4 + plen + 4
	return payload, nil
}

// Next returns the next intact record, or io.EOF at the end of the log
// — including a torn tail in the final segment, which ends the log
// cleanly. A malformed record in a sealed segment and a genuine I/O
// failure are reported as errors, not end-of-log, so replay never
// silently truncates on a failing disk or a corrupted sealed file.
func (r *Reader) Next() (*Record, error) {
	for {
		payload, err := r.readFrame()
		if err == io.EOF {
			if len(r.pending) == 0 {
				return nil, io.EOF
			}
			if err := r.advance(); err != nil {
				return nil, err
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		rec, err := decodePayload(payload)
		if err != nil {
			if r.sealed {
				return nil, r.corruptf(err.Error())
			}
			r.remaining = 0
			return nil, io.EOF
		}
		return rec, nil
	}
}
