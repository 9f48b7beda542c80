package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openSegmented opens a logger rotating at a deliberately tiny segment
// size, so a handful of records spans several files.
func openSegmented(t *testing.T, path string) *Logger {
	t.Helper()
	l, err := Open(Options{Path: path, Policy: SyncEachCommit, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func appendN(t *testing.T, l *Logger, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if _, err := l.Append(testRecord(KindBorder, "SP1", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
}

func segCount(t *testing.T, base string) int {
	t.Helper()
	segs, err := logSegments(base)
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

func TestSegmentRotationRoundTrip(t *testing.T) {
	// Under SyncGroup the flusher seals full segments, inside a group
	// sync; the files must read back the same way.
	for _, policy := range []SyncPolicy{SyncEachCommit, SyncGroup} {
		path := filepath.Join(t.TempDir(), "cmd.log")
		l, err := Open(Options{Path: path, Policy: policy, SegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 20)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if n := segCount(t, path); n < 3 {
			t.Fatalf("policy %d: expected several segments at 128-byte rotation, got %d", policy, n)
		}
		recs, err := ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 20 {
			t.Fatalf("policy %d: read %d records across segments, want 20", policy, len(recs))
		}
		for i, r := range recs {
			if r.LSN != uint64(i+1) {
				t.Fatalf("policy %d: record %d: LSN %d, want %d — segment chaining broke order", policy, i, r.LSN, i+1)
			}
		}
	}
}

func TestSegmentReopenContinuesHighest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmd.log")
	l := openSegmented(t, path)
	appendN(t, l, 10)
	l.Close()
	before := segCount(t, path)

	// Reopen — even with rotation off — and keep appending: records
	// must land in the highest existing segment, never back in an
	// earlier file, or segment order would stop matching LSN order.
	l2, err := Open(Options{Path: path, Policy: SyncEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	l2.SetNextSeqForTest(11)
	if _, err := l2.Append(testRecord(KindOLTP, "SP2", 0)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if after := segCount(t, path); after != before {
		t.Fatalf("reopen changed segment count %d -> %d", before, after)
	}
	recs, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := recs[len(recs)-1]; got.SP != "SP2" || got.LSN != 11 {
		t.Fatalf("last record = %+v, want SP2 at LSN 11", got)
	}
}

func TestCompactDropsSealedSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmd.log")
	l := openSegmented(t, path)
	appendN(t, l, 20)

	// Checkpoint covers the first 15 records: early sealed segments
	// are dropped whole, a straddler is rewritten, and the rest
	// survive untouched.
	if err := l.CompactBefore(15); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("kept %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(16+i) {
			t.Fatalf("kept record %d has LSN %d, want %d", i, r.LSN, 16+i)
		}
	}
	// Fully covered sealed segments must be gone as files, not merely
	// emptied: aging out is an O(1) delete.
	segs, err := logSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs[:len(segs)-1] {
		first, last, err := segmentLSNRange(s.path)
		if err != nil {
			t.Fatal(err)
		}
		if last != 0 && last <= 15 {
			t.Fatalf("segment %s (LSNs %d-%d) should have been dropped", s.path, first, last)
		}
	}

	// The log keeps working after compaction.
	if _, err := l.Append(testRecord(KindOLTP, "after", 0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err = ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 || recs[5].SP != "after" {
		t.Fatalf("post-compact append lost: %d records", len(recs))
	}
}

func TestSealedSegmentCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmd.log")
	l := openSegmented(t, path)
	appendN(t, l, 20)
	l.Close()
	segs, err := logSegments(path)
	if err != nil || len(segs) < 2 {
		t.Fatalf("need >= 2 segments: %d, %v", len(segs), err)
	}

	// Flip one byte in the middle of the FIRST (sealed) segment.
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Replay must fail loudly: a sealed segment was complete when it
	// sealed, so a bad record there is corruption, never a torn tail.
	if _, err := ReadAll(path); err == nil || !strings.Contains(err.Error(), "sealed segment") {
		t.Fatalf("corrupt sealed segment read as %v, want sealed-segment corruption error", err)
	}
}

func TestFinalSegmentTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmd.log")
	l := openSegmented(t, path)
	appendN(t, l, 20)
	l.Close()
	segs, err := logSegments(path)
	if err != nil || len(segs) < 2 {
		t.Fatalf("need >= 2 segments: %d, %v", len(segs), err)
	}
	whole, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the FINAL (active) segment mid-record: the classic
	// crash-mid-write state, which must read as a clean end-of-log.
	last := segs[len(segs)-1].path
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(whole)-1 {
		t.Fatalf("torn final segment: read %d records, want %d", len(recs), len(whole)-1)
	}
}

func TestSetPathsRecognizesSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSet(SetOptions{Path: dir, Partitions: 2, Policy: SyncEachCommit, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 40; i++ {
		if _, err := s.Append(int(i%2), testRecord(KindBorder, "SP1", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	paths, err := SetPaths(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("SetPaths returned %d shards, want 2 bases: %v", len(paths), paths)
	}
	if n := segCount(t, filepath.Join(dir, "cmd-p0.log")); n < 2 {
		t.Fatalf("shard 0 never rotated (%d segment); the aging-out check below needs .s files", n)
	}

	// Age shard 0's base file out entirely; the shard must still be
	// listed (by its base path) thanks to its .s<k> segment files, and
	// the merged read must still deliver its surviving records.
	if err := os.Remove(filepath.Join(dir, "cmd-p0.log")); err != nil {
		t.Fatal(err)
	}
	paths, err = SetPaths(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("SetPaths after aging out a base file: %d shards, want 2: %v", len(paths), paths)
	}
	recs, err := ReadSetMerged(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatalf("merged stream out of order at %d: %d then %d", i, recs[i-1].LSN, recs[i].LSN)
		}
	}
}

//sstore:allocgate Reader.readFrame
func TestReaderFrameAllocFree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmd.log")
	l, err := Open(Options{Path: path, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1101; i++ {
		if _, err := l.Append(testRecord(KindOLTP, "SP1", 0)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.readFrame(); err != nil { // warm the scratch buffer
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		payload, err := r.readFrame()
		if err != nil || len(payload) == 0 {
			t.Fatal("frame read broke")
		}
	}); n != 0 {
		t.Fatalf("readFrame allocates %v/op over a warm scratch buffer; replay reads every record through it", n)
	}
}

// TestLoggerAppendAllocFree: once the logger's encode scratch has
// grown, framing and buffering a record allocates nothing. SyncNone
// keeps fsync out of the measurement; every logged TE pays this path.
func TestLoggerAppendAllocFree(t *testing.T) {
	l, err := Open(Options{Path: filepath.Join(t.TempDir(), "cmd.log"), Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := testRecord(KindOLTP, "SP1", 0)
	if _, err := l.Append(rec); err != nil { // warm the encode scratch
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Logger.Append allocates %v/op over a warm encode buffer; every logged TE appends through it", n)
	}
}

// SetNextSeqForTest positions a standalone logger's sequence counter;
// tests reopening a log use it to continue past replayed records the
// way recovery does.
func (l *Logger) SetNextSeqForTest(next uint64) { l.seq.Store(next - 1) }
