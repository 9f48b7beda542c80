package pe

// Engine-level lifecycle tests for archive tables: DDL through the
// catalog's lazy archive provider, checkpoint generations carrying
// page-file copies, and recovery restoring the pages before WAL redo
// replays the post-checkpoint tail over them.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sstore/internal/recovery"
	"sstore/internal/types"
	"sstore/internal/wal"
)

// archiveOpts builds a strong-recovery engine config whose archive
// page files live under the test dir.
func archiveOpts(dir string) Options {
	return Options{
		Recovery:            recovery.ModeStrong,
		LogPath:             dir + "/cmd.log",
		LogPolicy:           wal.SyncEachCommit,
		SnapshotDir:         dir,
		ArchiveDir:          dir + "/arch",
		ArchiveMemoryBudget: 1 << 20,
	}
}

// buildArchiveApp re-issues the app's boot state: one archive table
// and an SP that appends a row to it.
func buildArchiveApp(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := newEngine(t, opts)
	if err := e.ExecDDL("CREATE ARCHIVE TABLE hist (id BIGINT PRIMARY KEY, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	err := e.RegisterProc(&StoredProc{Name: "Put", Func: func(pc *ProcCtx) error {
		_, err := pc.Query("INSERT INTO hist VALUES (?, ?)", pc.Params()...)
		return err
	}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestArchiveTableCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := archiveOpts(dir)

	e1 := buildArchiveApp(t, opts)
	for i := int64(0); i < 50; i++ {
		if _, err := e1.Call("Put", types.Row{types.NewInt(i), types.NewInt(i * 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The generation must contain the archive page-file copy alongside
	// the row snapshot.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var pageGen string
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "snapshot.p0.hist.pages.g") {
			pageGen = ent.Name()
		}
	}
	if pageGen == "" {
		t.Fatalf("no archive page generation in %v", ents)
	}
	// Post-checkpoint tail: recovery must replay these from the WAL on
	// top of the restored pages.
	for i := int64(50); i < 80; i++ {
		if _, err := e1.Call("Put", types.Row{types.NewInt(i), types.NewInt(i * 7)}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := e1.AdHoc(0, "SELECT id, v FROM hist ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 80 {
		t.Fatalf("pre-crash rows = %d", len(want.Rows))
	}
	e1.Close() // crash: log and checkpoint generation are durable

	e2 := buildArchiveApp(t, opts)
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := e2.AdHoc(0, "SELECT id, v FROM hist ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("recovered rows = %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !got.Rows[i].Equal(want.Rows[i]) {
			t.Fatalf("row %d = %v, want %v", i, got.Rows[i], want.Rows[i])
		}
	}
	// The recovered table keeps working: the primary key survived the
	// restore (a duplicate rejects) and new rows land.
	if _, err := e2.Call("Put", types.Row{types.NewInt(40), types.NewInt(0)}); err == nil {
		t.Error("duplicate id accepted after recovery")
	}
	if _, err := e2.Call("Put", types.Row{types.NewInt(80), types.NewInt(560)}); err != nil {
		t.Fatal(err)
	}
	res, err := e2.AdHoc(0, "SELECT COUNT(*) FROM hist")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 81 {
		t.Errorf("post-recovery count = %v", res.Rows[0][0])
	}
}

func TestArchiveTempDirRemovedOnClose(t *testing.T) {
	// No ArchiveDir: the engine auto-creates a temp dir on the first
	// CREATE ARCHIVE TABLE and removes it on Close.
	e, err := NewEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ExecDDL("CREATE ARCHIVE TABLE a (id BIGINT)"); err != nil {
		e.Close()
		t.Fatal(err)
	}
	tmp := e.archTmp
	if tmp == "" {
		t.Fatal("auto temp dir not created")
	}
	if _, err := os.Stat(filepath.Join(tmp, "archive.p0.a.pages")); err != nil {
		t.Fatalf("page file missing: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("temp archive dir survived Close: %v", err)
	}
}
