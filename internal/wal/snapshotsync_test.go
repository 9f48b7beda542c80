package wal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sstore/internal/storage"
	"sstore/internal/types"
)

// hookSnapshotSync replaces snapshotSync for one test: fn sees each
// synced file's name (the directory as "dir") and decides the result.
func hookSnapshotSync(t *testing.T, dir string, fn func(name string) error) {
	t.Helper()
	orig := snapshotSync
	t.Cleanup(func() { snapshotSync = orig })
	snapshotSync = func(f *os.File) error {
		name := filepath.Base(f.Name())
		if f.Name() == dir {
			name = "dir"
		}
		if err := fn(name); err != nil {
			return err
		}
		return orig(f)
	}
}

// TestSnapshotSyncOrder: a checkpoint is durable before the caller
// compacts the log behind it. The snapshot's temp file is synced before
// its rename; the directory is synced before the manifest rename, which
// makes every generation file in it durable, and again after it. Each
// sync records which final names already exist, which places it
// relative to the renames.
func TestSnapshotSyncOrder(t *testing.T) {
	dir := t.TempDir()
	var events []string
	hookSnapshotSync(t, dir, func(name string) error {
		ev := []string{name}
		for _, final := range []string{"snap", manifestName} {
			if _, err := os.Stat(filepath.Join(dir, final)); err == nil {
				ev = append(ev, "+"+final)
			}
		}
		events = append(events, strings.Join(ev, " "))
		return nil
	})
	tbl := storage.NewTable("t", storage.KindTable, snapshotSchema())
	if _, err := tbl.Insert(types.Row{types.NewInt(1), types.NewText("x")}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(filepath.Join(dir, "snap"), 5, []*storage.Table{tbl}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotManifest(dir, 5); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"snap.tmp",
		"snapshot.manifest.tmp +snap",
		"dir +snap",
		"dir +snap +snapshot.manifest",
	}
	if !slices.Equal(events, want) {
		t.Errorf("syncs = %q, want %q", events, want)
	}
}

// TestSnapshotSyncFailureCommitsNothing: when a sync fails, the file it
// guards is never renamed into place — no snapshot, and no manifest
// naming a generation the disk may not hold.
func TestSnapshotSyncFailureCommitsNothing(t *testing.T) {
	dir := t.TempDir()
	fail := errors.New("injected sync failure")
	hookSnapshotSync(t, dir, func(string) error { return fail })
	tbl := storage.NewTable("t", storage.KindTable, snapshotSchema())
	if err := WriteSnapshot(filepath.Join(dir, "snap"), 5, []*storage.Table{tbl}); !errors.Is(err, fail) {
		t.Fatalf("WriteSnapshot = %v, want the sync failure", err)
	}
	hookSnapshotSync(t, dir, func(name string) error {
		if name == "dir" {
			return fail
		}
		return nil
	})
	if err := WriteSnapshotManifest(dir, 5); !errors.Is(err, fail) {
		t.Fatalf("WriteSnapshotManifest = %v, want the sync failure", err)
	}
	for _, name := range []string{"snap", manifestName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s exists after a failed sync (stat: %v)", name, err)
		}
	}
	if _, ok, err := ReadSnapshotManifest(dir); ok || err != nil {
		t.Errorf("manifest readable after a failed commit: ok=%v err=%v", ok, err)
	}
}
