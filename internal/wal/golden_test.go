package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"sstore/internal/bufferpool"
	"sstore/internal/golden"
	"sstore/internal/storage"
	"sstore/internal/types"
)

// Golden-file tests for the on-disk formats this package owns: the
// record frame, a rotated partition log, and one checkpoint generation
// (snapshot file, archive page-file copy, manifest). Each test encodes
// fixed inputs and compares the bytes with testdata/, then decodes the
// committed files and checks the values they carry.

// goldenRecords is one record of each kind, with every value kind in
// its parameters and batch rows. LSNs are 1..4 in slice order.
func goldenRecords() []*Record {
	return []*Record{
		{LSN: 1, Kind: KindOLTP, Partition: 0, SP: "Vote",
			Params: types.Row{types.NewInt(5551234), types.NewText("CA"), types.NewInt(-7)}},
		{LSN: 2, Kind: KindBorder, Partition: 1, SP: "IngestReadings", BatchID: 42,
			Params: types.Row{types.NewInt(42)},
			Batch: []types.Row{
				{types.NewInt(1), types.NewFloat(21.5), types.NewTimestamp(1700000000000000)},
				{types.NewInt(2), types.Null, types.NewBool(true)},
			}},
		{LSN: 3, Kind: KindHandoff, Partition: 3, SP: "Consume", BatchID: 43,
			Batch: []types.Row{{types.NewText("hand-off"), types.NewFloat(-0.25)}}},
		{LSN: 4, Kind: KindInterior, Partition: 2, SP: "Aggregate", BatchID: 42},
	}
}

// sameRecords compares records field by field; an absent row and an
// empty one are the same.
func sameRecords(t *testing.T, got, want []*Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	sameRow := func(a, b types.Row) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }
	for i, g := range got {
		w := want[i]
		ok := g.LSN == w.LSN && g.Kind == w.Kind && g.Partition == w.Partition &&
			g.SP == w.SP && g.BatchID == w.BatchID && sameRow(g.Params, w.Params) &&
			len(g.Batch) == len(w.Batch)
		for j := 0; ok && j < len(g.Batch); j++ {
			ok = sameRow(g.Batch[j], w.Batch[j])
		}
		if !ok {
			t.Errorf("record %d decoded as %+v, want %+v", i, g, w)
		}
	}
}

func TestGoldenRecordFrames(t *testing.T) {
	var buf []byte
	for _, r := range goldenRecords() {
		buf = r.encode(buf)
	}
	path := filepath.Join("testdata", "records.golden")
	golden.Check(t, path, buf)
	recs, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, recs, goldenRecords())
}

// TestGoldenSegmentFiles writes the golden records through a rotating
// partition log in the directory layout and compares every file it
// leaves: the names (cmd-p<N>.log, then .s<k> segments) and the bytes.
func TestGoldenSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSet(SetOptions{Path: dir, Partitions: 1, Policy: SyncNone, SegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range goldenRecords() {
		if _, err := s.Append(0, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join("testdata", "log")
	names := dirNames(t, dir)
	if wantNames := dirNames(t, want); !slices.Equal(names, wantNames) {
		t.Fatalf("log files = %v, want %v", names, wantNames)
	}
	if len(names) < 2 {
		t.Fatalf("log files = %v: the golden log should span segments", names)
	}
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		golden.Check(t, filepath.Join(want, name), got)
	}
	recs, err := ReadSetMerged(want)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, recs, goldenRecords())
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range ents {
		names = append(names, ent.Name())
	}
	return names
}

// goldenStamp is the commit-sequence stamp of the golden checkpoint.
const goldenStamp = 9

// goldenTables builds one table of each snapshot flavour, its archive
// table's page file under archDir, and fills them unless empty is set:
//   - accounts: a plain table (flag 0) after an insert, a delete and an
//     update, so TIDs have gaps;
//   - readings: a stream holding two pending batches;
//   - recent: a count window (flag 2) with a maintained SUM, one
//     staged row beyond its active rows;
//   - history: an archive table (flag 3) with a deleted row, whose page
//     holds a dead slot.
func goldenTables(t *testing.T, archDir string, empty bool) []*storage.Table {
	t.Helper()
	accounts := storage.NewTable("accounts", storage.KindTable, types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "owner", Kind: types.KindText},
		types.Column{Name: "balance", Kind: types.KindFloat},
		types.Column{Name: "active", Kind: types.KindBool},
		types.Column{Name: "opened", Kind: types.KindTimestamp},
	))
	readings := storage.NewTable("readings", storage.KindStream, types.MustSchema(
		types.Column{Name: "sensor", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindFloat},
	))
	recent, err := storage.NewWindowTable("recent", types.MustSchema(
		types.Column{Name: "ts", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindFloat},
	), storage.WindowSpec{Size: 3, Slide: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := recent.MaintainAggregate(storage.AggSum, 1); err != nil {
		t.Fatal(err)
	}
	history, err := storage.NewArchiveTable("history", types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "note", Kind: types.KindText},
	), &storage.ArchiveSite{Pool: bufferpool.NewBudget(1 << 20), Dir: archDir, Tag: "p0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { history.CloseArchive() })
	tables := []*storage.Table{accounts, readings, recent, history}
	if empty {
		return tables
	}
	must := func(_ storage.InsertResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(accounts.Insert(types.Row{types.NewInt(1), types.NewText("ada"), types.NewFloat(10.5), types.NewBool(true), types.NewTimestamp(1700000000000000)}, 0, nil))
	must(accounts.Insert(types.Row{types.NewInt(2), types.NewText("bob"), types.Null, types.NewBool(false), types.NewTimestamp(0)}, 0, nil))
	must(accounts.Insert(types.Row{types.NewInt(3), types.NewText("cy"), types.NewFloat(-3), types.Null, types.Null}, 0, nil))
	if _, err := accounts.Delete(2, nil); err != nil {
		t.Fatal(err)
	}
	if err := accounts.Update(3, types.Row{types.NewInt(3), types.NewText("cy"), types.NewFloat(4.25), types.NewBool(true), types.Null}, nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range []int64{7, 8} {
		for s := int64(1); s <= 2; s++ {
			must(readings.Insert(types.Row{types.NewInt(s), types.NewFloat(float64(b) + float64(s)/10)}, b, nil))
		}
	}
	for i, v := range []float64{0.1, 0.2, 0.3, 0.4} {
		must(recent.Insert(types.Row{types.NewInt(int64(i)), types.NewFloat(v)}, 0, nil))
	}
	for i := int64(1); i <= 3; i++ {
		must(history.Insert(types.Row{types.NewInt(i), types.NewText("entry")}, 0, nil))
	}
	if _, err := history.Delete(2, nil); err != nil {
		t.Fatal(err)
	}
	return tables
}

type tableEntry struct {
	meta storage.TupleMeta
	row  types.Row
}

func tableEntries(tbl *storage.Table) []tableEntry {
	var out []tableEntry
	tbl.ScanAll(func(meta storage.TupleMeta, row types.Row) bool {
		out = append(out, tableEntry{meta: meta, row: row})
		return true
	})
	return out
}

// TestGoldenCheckpoint writes one checkpoint generation the way
// Engine.Checkpoint lays it out — snapshot.p0.g<stamp>, the archive
// table's snapshot.p0.history.pages.g<stamp>, snapshot.manifest — and
// compares each file, then loads the committed files into fresh tables.
func TestGoldenCheckpoint(t *testing.T) {
	src := goldenTables(t, t.TempDir(), false)
	dir := t.TempDir()
	snapName := "snapshot.p0.g9"
	pagesName := "snapshot.p0.history.pages.g9"
	if err := WriteSnapshot(filepath.Join(dir, snapName), goldenStamp, src); err != nil {
		t.Fatal(err)
	}
	if err := src[3].ArchiveCheckpoint(filepath.Join(dir, pagesName)); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotManifest(dir, goldenStamp); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join("testdata", "checkpoint")
	for _, name := range []string{snapName, pagesName, manifestName} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		golden.Check(t, filepath.Join(want, name), got)
	}

	stamp, ok, err := ReadSnapshotManifest(want)
	if err != nil || !ok || stamp != goldenStamp {
		t.Fatalf("manifest = %d, %v, %v; want %d", stamp, ok, err, goldenStamp)
	}
	dst := goldenTables(t, t.TempDir(), true)
	byName := map[string]*storage.Table{}
	for _, tbl := range dst {
		byName[tbl.Name()] = tbl
	}
	lsn, err := LoadSnapshot(filepath.Join(want, snapName), func(name string) (*storage.Table, bool) {
		tbl, ok := byName[name]
		return tbl, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != goldenStamp {
		t.Errorf("snapshot lastLSN = %d, want %d", lsn, goldenStamp)
	}
	if !dst[3].ArchiveAwaitingPages() {
		t.Fatal("archive stub did not announce a page-file restore")
	}
	// The page file restores from a private copy: page.Open opens for
	// writing.
	pages, err := os.ReadFile(filepath.Join(want, pagesName))
	if err != nil {
		t.Fatal(err)
	}
	copyPath := filepath.Join(t.TempDir(), pagesName)
	if err := os.WriteFile(copyPath, pages, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dst[3].ArchiveRestore(copyPath); err != nil {
		t.Fatal(err)
	}
	for i, tbl := range dst {
		got, exp := tableEntries(tbl), tableEntries(src[i])
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("%s restored as %v, want %v", tbl.Name(), got, exp)
		}
	}
	if n := []int{len(tableEntries(dst[0])), len(tableEntries(dst[1])), len(tableEntries(dst[3]))}; !slices.Equal(n, []int{2, 4, 2}) {
		t.Errorf("accounts/readings/history rows = %v, want [2 4 2]", n)
	}
	if got := storage.PendingBatches(dst[1]); !slices.Equal(got, []int64{7, 8}) {
		t.Errorf("readings pending batches = %v, want [7 8]", got)
	}
	w, sw := dst[2].Window().Mark(), src[2].Window().Mark()
	if staged := dst[2].Len() - dst[2].ActiveLen(); !reflect.DeepEqual(w, sw) || staged != 1 || dst[2].ActiveLen() != 3 {
		t.Errorf("window bookkeeping=%+v staged=%d active=%d, want %+v/1/3", w, staged, dst[2].ActiveLen(), sw)
	}
	gotSum, ok := dst[2].MaintainedAggregate(storage.AggSum, 1)
	wantSum, _ := src[2].MaintainedAggregate(storage.AggSum, 1)
	if !ok || !reflect.DeepEqual(gotSum, wantSum) {
		t.Errorf("window SUM = %v, want %v", gotSum, wantSum)
	}
}
