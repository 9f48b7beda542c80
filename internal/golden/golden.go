// Package golden compares encoder output against committed golden
// files, so a change to any on-disk format shows up as a binary diff
// under the owning package's testdata/ directory. There is no update
// mode: a golden file changes only when someone replaces it on purpose.
package golden

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// Check fails t unless got is byte-identical to the golden file at
// path. On a mismatch it writes got to a file under t.TempDir() and
// reports that file's path and the first differing byte offset.
//
//lint:allow unused -- test support: page and wal golden tests
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("golden: %v", err)
	}
	if err == nil && bytes.Equal(got, want) {
		return
	}
	off := 0
	for off < len(got) && off < len(want) && got[off] == want[off] {
		off++
	}
	fresh := filepath.Join(t.TempDir(), filepath.Base(path))
	if err := os.WriteFile(fresh, got, 0o644); err != nil {
		t.Fatalf("golden: %s differs at offset %d; writing the fresh encoding: %v", path, off, err)
	}
	t.Fatalf("golden: %s differs at offset %d (got %d bytes, want %d); fresh encoding in %s",
		path, off, len(got), len(want), fresh)
}
