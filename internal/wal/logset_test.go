package wal

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestLogSetGlobalSequence(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSet(SetOptions{Path: dir, Partitions: 3, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent appenders on different partitions draw from one
	// sequence: LSNs are unique and every record lands in its own
	// partition's file.
	const perPart = 20
	var wg sync.WaitGroup
	for pid := 0; pid < 3; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perPart; i++ {
				if _, err := s.Append(pid, testRecord(KindOLTP, "SP", int64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(pid)
	}
	wg.Wait()
	if got := s.LastSeq(); got != 3*perPart {
		t.Errorf("LastSeq = %d, want %d", got, 3*perPart)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	merged, err := ReadSetMerged(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 3*perPart {
		t.Fatalf("merged records = %d", len(merged))
	}
	for i, r := range merged {
		if r.LSN != uint64(i+1) {
			t.Fatalf("merged[%d].LSN = %d: global order broken", i, r.LSN)
		}
	}
	// Per-partition files each hold their own perPart records, in
	// ascending LSN order.
	for pid := 0; pid < 3; pid++ {
		recs, err := ReadAll(PartitionPath(dir, pid))
		if err != nil || len(recs) != perPart {
			t.Fatalf("partition %d: %d records (%v)", pid, len(recs), err)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].LSN <= recs[i-1].LSN {
				t.Fatalf("partition %d log not monotonic", pid)
			}
		}
	}
}

func TestLogSetPrefixLayout(t *testing.T) {
	base := filepath.Join(t.TempDir(), "cmd.log")
	s, err := OpenSet(SetOptions{Path: base, Partitions: 2, Policy: SyncEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	s.Append(0, testRecord(KindOLTP, "A", 1))
	s.Append(1, testRecord(KindOLTP, "B", 2))
	s.Close()
	for pid := 0; pid < 2; pid++ {
		if _, err := os.Stat(base + ".p" + string(rune('0'+pid))); err != nil {
			t.Errorf("missing shard %d: %v", pid, err)
		}
	}
	merged, err := ReadSetMerged(base)
	if err != nil || len(merged) != 2 {
		t.Fatalf("merged = %d records (%v)", len(merged), err)
	}
}

func TestLogSetTornTailsIndependent(t *testing.T) {
	// Torn tails on two different partition logs are dropped
	// independently: each log loses only its own tail.
	dir := t.TempDir()
	s, err := OpenSet(SetOptions{Path: dir, Partitions: 2, Policy: SyncEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		s.Append(0, testRecord(KindOLTP, "P0", i))
		s.Append(1, testRecord(KindOLTP, "P1", i))
	}
	s.Close()
	for pid := 0; pid < 2; pid++ {
		path := PartitionPath(dir, pid)
		data, _ := os.ReadFile(path)
		// Partition 0 gets trailing garbage; partition 1 loses half
		// its final record.
		if pid == 0 {
			data = append(data, 0xde, 0xad)
		} else {
			data = data[:len(data)-7]
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := ReadSetMerged(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 5 { // 3 intact on p0 + 2 on p1
		t.Fatalf("merged after torn tails = %d records", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].LSN <= merged[i-1].LSN {
			t.Fatalf("merge order broken at %d", i)
		}
	}
}

func TestLogSetCompactBefore(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSet(SetOptions{Path: dir, Partitions: 2, Policy: SyncEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		s.Append(0, testRecord(KindOLTP, "P0", i))
		s.Append(1, testRecord(KindOLTP, "P1", i))
	}
	cut := s.LastSeq() - 2 // keep the last two commits (one per log)
	if err := s.CompactBefore(cut); err != nil {
		t.Fatal(err)
	}
	merged, err := ReadSetMerged(dir)
	if err != nil || len(merged) != 2 {
		t.Fatalf("after compaction: %d records (%v)", len(merged), err)
	}
	for _, r := range merged {
		if r.LSN <= cut {
			t.Errorf("record %d survived compaction below %d", r.LSN, cut)
		}
	}
	// Appends continue past the compacted tail.
	lsn, err := s.Append(0, testRecord(KindOLTP, "P0", 9))
	if err != nil || lsn != 9 {
		t.Fatalf("post-compaction append LSN = %d (%v), want 9", lsn, err)
	}
	merged, err = ReadSetMerged(dir)
	if err != nil || merged[len(merged)-1].LSN != 9 {
		t.Fatalf("post-append merged tail = %v (%v), want LSN 9", merged, err)
	}
	s.Close()
}

func TestGroupCommitFlushesImmediatelyWhenDue(t *testing.T) {
	// Group commit has no window to sleep out: an append to an idle log
	// kicks the flusher, which syncs at once, so the wait is one fsync.
	path := filepath.Join(t.TempDir(), "cmd.log")
	l, err := Open(Options{Path: path, Policy: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, sp := range []string{"A", "B"} {
		start := time.Now()
		lsn, err := l.Append(testRecord(KindOLTP, sp, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 250*time.Millisecond {
			t.Errorf("append %s took %v on an idle log, want one fsync", sp, d)
		}
		if got := l.Durable(); got < lsn {
			t.Errorf("Append returned before LSN %d was durable (durable %d)", lsn, got)
		}
		time.Sleep(20 * time.Millisecond) // idle between appends
	}
}

func TestLogSetPartitionSubset(t *testing.T) {
	dir := t.TempDir()
	// A cluster node owning global partitions {1, 3} of a 4-partition
	// map opens logs only for those IDs, under their global names.
	s, err := OpenSet(SetOptions{Path: dir, PartitionIDs: []int{1, 3}, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if s.Partitions() != 2 {
		t.Fatalf("Partitions() = %d, want 2", s.Partitions())
	}
	for _, pid := range []int{1, 3} {
		if _, err := s.Append(pid, testRecord(KindBorder, "SP", int64(pid))); err != nil {
			t.Fatalf("append pid %d: %v", pid, err)
		}
	}
	// Appending to a partition the node does not own must fail — that
	// record belongs on another node's log.
	if _, err := s.Append(0, testRecord(KindOLTP, "SP", 1)); err == nil {
		t.Fatal("append to unowned partition 0 succeeded")
	}
	if _, err := s.Append(2, testRecord(KindOLTP, "SP", 1)); err == nil {
		t.Fatal("append to unowned partition 2 succeeded")
	}
	if s.Bytes() == 0 {
		t.Fatal("Bytes() = 0 after appends")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Shard files carry the global partition IDs.
	for _, pid := range []int{1, 3} {
		if _, err := os.Stat(PartitionPath(dir, pid)); err != nil {
			t.Errorf("missing shard for global pid %d: %v", pid, err)
		}
	}
	for _, pid := range []int{0, 2} {
		if _, err := os.Stat(PartitionPath(dir, pid)); err == nil {
			t.Errorf("unexpected shard for unowned pid %d", pid)
		}
	}
	// The node replays exactly its own shards.
	merged, err := ReadSetMerged(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 2 {
		t.Fatalf("merged records = %d, want 2", len(merged))
	}
}

func TestLogSetBytesMonotonic(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSet(SetOptions{Path: dir, Partitions: 1, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var last uint64
	for i := 0; i < 5; i++ {
		if _, err := s.Append(0, testRecord(KindOLTP, "SP", int64(i))); err != nil {
			t.Fatal(err)
		}
		b := s.Bytes()
		if b <= last {
			t.Fatalf("Bytes() not monotonic: %d then %d", last, b)
		}
		last = b
	}
}
