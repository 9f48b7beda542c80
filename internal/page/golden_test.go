package page

import (
	"os"
	"path/filepath"
	"testing"

	"sstore/internal/golden"
)

// TestGoldenBlock pins the 8 KiB block format: a page holding three
// records with the middle one deleted, written through File.WriteBlock
// (which stamps the CRC) as block 0 of a fresh file, must match
// testdata/block.golden byte for byte; reading the committed block back
// yields the two live records and a dead slot.
func TestGoldenBlock(t *testing.T) {
	recs := [][]byte{[]byte("first record"), []byte("deleted"), []byte("third")}
	var p Page
	p.Reset()
	for _, rec := range recs {
		if _, err := p.InsertRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.DeleteRecord(1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "block")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteBlock(f.Allocate(), &p); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join("testdata", "block.golden")
	golden.Check(t, want, got)

	// Decode a private copy: Open opens for writing.
	data, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if f, err = Open(path); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Blocks() != 1 {
		t.Fatalf("blocks = %d, want 1", f.Blocks())
	}
	var q Page
	if err := f.ReadBlock(0, &q); err != nil {
		t.Fatal(err)
	}
	if q.NumSlots() != 3 {
		t.Errorf("slots = %d, want 3", q.NumSlots())
	}
	for slot, want := range []string{"first record", "", "third"} {
		if got := string(q.Record(uint16(slot))); got != want {
			t.Errorf("slot %d = %q, want %q", slot, got, want)
		}
	}
	if q.Record(1) != nil {
		t.Error("deleted slot 1 still returns a record")
	}
}
