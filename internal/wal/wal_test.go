package wal

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sstore/internal/contend"
	"sstore/internal/storage"
	"sstore/internal/types"
)

func testRecord(kind RecordKind, sp string, batch int64) *Record {
	return &Record{
		Kind:    kind,
		SP:      sp,
		BatchID: batch,
		Params:  types.Row{types.NewInt(42), types.NewText("x")},
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmd.log")
	l, err := Open(Options{Path: path, Policy: SyncEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		lsn, err := l.Append(testRecord(KindBorder, "SP1", i))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Errorf("lsn = %d, want %d", lsn, i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.SP != "SP1" || r.BatchID != int64(i+1) {
			t.Errorf("record %d = %+v", i, r)
		}
		if len(r.Params) != 2 || r.Params[0].Int() != 42 {
			t.Errorf("params %d = %v", i, r.Params)
		}
	}
}

func TestReadMissingLog(t *testing.T) {
	recs, err := ReadAll(filepath.Join(t.TempDir(), "nope.log"))
	if err != nil || recs != nil {
		t.Errorf("missing log: %v, %v", recs, err)
	}
}

func TestTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmd.log")
	l, _ := Open(Options{Path: path, Policy: SyncEachCommit})
	l.Append(testRecord(KindOLTP, "A", 0))
	l.Append(testRecord(KindOLTP, "B", 0))
	l.Close()
	// Simulate a crash mid-write: append garbage, then truncate the
	// last intact record's tail.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, append(data, 0xde, 0xad, 0xbe), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(path)
	if err != nil || len(recs) != 2 {
		t.Fatalf("torn tail: %d records, %v", len(recs), err)
	}
	// Corrupt a byte inside the second record: it and everything
	// after must be dropped, the first survives.
	if err := os.WriteFile(path, append(append([]byte{}, data[:len(data)-6]...), 0xff), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err = ReadAll(path)
	if err != nil || len(recs) != 1 || recs[0].SP != "A" {
		t.Fatalf("corrupt record: %d records, %v", len(recs), err)
	}
}

// TestGroupCommitReleasesWaiters: records appended while an fsync is
// in flight are made durable together by the next one, and every
// waiting appender is released. The first sync is held open until all
// ten records are appended, so the grouping is enforced rather than
// left to how the appenders happen to be scheduled: exactly two syncs
// cover the ten appends, and a logger that syncs per append fails.
func TestGroupCommitReleasesWaiters(t *testing.T) {
	checkGroupCommitReleasesWaiters(t)
}

// TestGroupCommitReleasesWaitersUnderContention repeats the group
// commit check with spinning goroutines keeping every P busy, where an
// assumption about how promptly appenders get scheduled would show.
func TestGroupCommitReleasesWaitersUnderContention(t *testing.T) {
	stop := contend.Spin(runtime.GOMAXPROCS(0) + 1)
	defer stop()
	for i := 0; i < 50 && !t.Failed(); i++ {
		checkGroupCommitReleasesWaiters(t)
	}
}

func checkGroupCommitReleasesWaiters(t *testing.T) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cmd.log")
	l, err := Open(Options{Path: path, Policy: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	l.syncFile = func(f *os.File) error {
		first.Do(func() {
			close(entered)
			<-release
		})
		return f.Sync()
	}
	const n = 10
	done := make(chan error, n)
	appendOne := func(i int64) {
		_, err := l.Append(testRecord(KindOLTP, "G", i))
		done <- err
	}
	go appendOne(0)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first append never reached a sync")
	}
	for i := int64(1); i < n; i++ {
		go appendOne(i)
	}
	// Wait for every record to be in the log while the first sync is
	// still held.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if appends, _ := l.Stats(); appends == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("appenders did not all append while the first sync was in flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("group commit did not release waiters")
		}
	}
	if appends, syncs := l.Stats(); appends != n || syncs != 2 {
		t.Errorf("group commit should batch: %d syncs for %d appends, want 2 (the held sync, then one for the nine that arrived during it)", syncs, appends)
	}
	l.Close()
	recs, _ := ReadAll(path)
	if len(recs) != n {
		t.Errorf("records = %d", len(recs))
	}
}

func TestSyncNoneFlushedOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmd.log")
	l, _ := Open(Options{Path: path, Policy: SyncNone})
	l.Append(testRecord(KindOLTP, "N", 0))
	l.Close()
	recs, _ := ReadAll(path)
	if len(recs) != 1 {
		t.Errorf("records = %d", len(recs))
	}
}

func TestSyncCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmd.log")
	l, _ := Open(Options{Path: path, Policy: SyncEachCommit})
	for i := 0; i < 4; i++ {
		l.Append(testRecord(KindOLTP, "S", 0))
	}
	appends, syncs := l.Stats()
	if appends != 4 || syncs != 4 {
		t.Errorf("appends=%d syncs=%d, want 4/4", appends, syncs)
	}
	l.Close()
}

func snapshotSchema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindText},
	)
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")

	tbl := storage.NewTable("t", storage.KindTable, snapshotSchema())
	strm := storage.NewTable("s", storage.KindStream, snapshotSchema())
	win, _ := storage.NewWindowTable("w", snapshotSchema(), storage.WindowSpec{Size: 2, Slide: 1})
	for i := int64(1); i <= 3; i++ {
		tbl.Insert(types.Row{types.NewInt(i), types.NewText("t")}, 0, nil)
		strm.Insert(types.Row{types.NewInt(i), types.NewText("s")}, i, nil)
		win.Insert(types.Row{types.NewInt(i), types.NewText("w")}, 0, nil)
	}
	winMark := win.Window().Mark()

	if err := WriteSnapshot(path, 77, []*storage.Table{tbl, strm, win}); err != nil {
		t.Fatal(err)
	}

	// Fresh catalog with same DDL.
	tbl2 := storage.NewTable("t", storage.KindTable, snapshotSchema())
	strm2 := storage.NewTable("s", storage.KindStream, snapshotSchema())
	win2, _ := storage.NewWindowTable("w", snapshotSchema(), storage.WindowSpec{Size: 2, Slide: 1})
	byName := map[string]*storage.Table{"t": tbl2, "s": strm2, "w": win2}
	lastLSN, err := LoadSnapshot(path, func(n string) (*storage.Table, bool) {
		t, ok := byName[n]
		return t, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastLSN != 77 {
		t.Errorf("lastLSN = %d", lastLSN)
	}
	if tbl2.Len() != 3 || strm2.Len() != 3 || win2.Len() != win.Len() {
		t.Fatalf("lens = %d %d %d (want 3, 3, %d)", tbl2.Len(), strm2.Len(), win2.Len(), win.Len())
	}
	if got := storage.PendingBatches(strm2); len(got) != 3 {
		t.Errorf("stream batches = %v", got)
	}
	if mark := win2.Window().Mark(); !reflect.DeepEqual(mark, winMark) {
		t.Errorf("window bookkeeping = %+v, want %+v", mark, winMark)
	}
	if win2.ActiveLen() != win.ActiveLen() {
		t.Errorf("window active = %d, want %d", win2.ActiveLen(), win.ActiveLen())
	}
	// Restored window keeps sliding correctly.
	res, err := win2.Insert(types.Row{types.NewInt(9), types.NewText("w")}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Slid {
		t.Error("restored window should slide on next insert (slide=1)")
	}
}

// TestSnapshotMissingFile: a missing snapshot file is an error, never
// an empty checkpoint — callers load only files a committed manifest
// names, so a missing one is damage.
func TestSnapshotMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "none")
	_, err := LoadSnapshot(path, func(string) (*storage.Table, bool) { return nil, false })
	if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), path) {
		t.Errorf("missing snapshot: err = %v, want a not-exist error naming %s", err, path)
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	tbl := storage.NewTable("t", storage.KindTable, snapshotSchema())
	tbl.Insert(types.Row{types.NewInt(1), types.NewText("x")}, 0, nil)
	if err := WriteSnapshot(path, 1, []*storage.Table{tbl}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	os.WriteFile(path, data, 0o644)
	if _, err := LoadSnapshot(path, func(n string) (*storage.Table, bool) { return tbl, true }); err == nil {
		t.Error("corrupt snapshot should fail to load")
	}
}

func TestSnapshotUnknownTableRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	tbl := storage.NewTable("t", storage.KindTable, snapshotSchema())
	WriteSnapshot(path, 1, []*storage.Table{tbl})
	if _, err := LoadSnapshot(path, func(string) (*storage.Table, bool) { return nil, false }); err == nil {
		t.Error("snapshot of unknown table should fail")
	}
}
