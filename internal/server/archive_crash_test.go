package server

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sstore"
	"sstore/client"
	"sstore/internal/page"
	"sstore/internal/wal"
)

// archivePayload pads each history row so a few hundred batches grow
// the archive table several times past the tiny buffer-pool budget the
// test configures.
var archivePayload = strings.Repeat("h", 256)

// TestArchiveCrashRecovery SIGKILLs a server whose archive table has
// spilled past its buffer-pool budget — mid-ingest, with dirty frames
// and an auto-checkpoint generation on disk — restarts it under
// -recovery strong, and asserts the history is exactly-once: page
// files restore from the checkpoint generation (every block CRC-
// verified), the WAL redoes the post-checkpoint tail, the dedup ledger
// suppresses re-sent batches, and the primary key would catch any
// double-apply.
func TestArchiveCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := buildServerBin(t)
	dir := t.TempDir()
	// The same address must survive the restart, so reserve a port
	// instead of parsing the readiness line's ephemeral one.
	addr := reservePort(t)
	args := []string{
		"-addr", addr, "-app", "archive",
		"-recovery", "strong",
		"-log", filepath.Join(dir, "cmd.log"),
		"-snapshots", dir,
		"-archive-dir", filepath.Join(dir, "arch"),
		"-archive-budget", "32768",
		"-checkpoint-every-bytes", "32768",
	}
	srv := startServerBin(t, bin, args...)

	cc, err := client.Dial(addr)
	if err != nil {
		srv.Process.Kill()
		srv.Wait()
		t.Fatal(err)
	}

	const acked, inflight = 300, 100
	ingest := func(c *client.Client, id int64) error {
		return c.IngestRetry("arch_in", &sstore.Batch{
			ID:   id,
			Rows: []sstore.Row{{sstore.Int(id), sstore.Text(archivePayload)}},
		})
	}
	// Phase 1: a fully acknowledged feed that outgrows the 32 KiB
	// budget several times over (~300 rows x ~270 bytes).
	for id := int64(1); id <= acked; id++ {
		if err := ingest(cc, id); err != nil {
			srv.Process.Kill()
			srv.Wait()
			t.Fatalf("ingest %d: %v", id, err)
		}
	}
	// The auto-checkpoint policy must have committed a generation
	// carrying the archive page file by now; wait for it (the policy
	// polls every 100ms).
	waitForGenPages(t, dir)

	// Phase 2: keep ingesting from a second connection and SIGKILL the
	// server mid-feed — no flush, no goodbye. Dirty frames die in
	// memory; acknowledgements past the kill are undefined.
	cc2, err := client.Dial(addr)
	if err != nil {
		srv.Process.Kill()
		srv.Wait()
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for id := int64(acked + 1); id <= acked+inflight; id++ {
			if err := ingest(cc2, id); err != nil {
				return // connection died at the kill — expected
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := srv.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	srv.Wait()
	<-done
	cc.Close()
	cc2.Close()

	// The committed checkpoint generation's page file must CRC-validate
	// block by block — a torn or bit-rotted page here would poison
	// recovery. Resolve the generation only now: an auto-checkpoint
	// during phase 2 may have committed a newer one and swept the file
	// waitForGenPages saw.
	verifyPageFile(t, committedGenPages(t, dir))

	// Restart from the log: snapshot + page restore + WAL redo.
	srv = startServerBin(t, bin, args...)
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	cc, err = client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	// Re-send the whole in-flight window: committed batches are
	// duplicates the replayed ledger suppresses, lost ones land now.
	for id := int64(acked + 1); id <= acked+inflight; id++ {
		err := ingest(cc, id)
		if err != nil && !strings.Contains(err.Error(), "duplicate batch") {
			t.Fatalf("re-ingest %d: %v", id, err)
		}
	}
	if err := cc.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := cc.Call("HistoryCount")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != acked+inflight {
		t.Errorf("history rows = %d, want %d (exactly-once across the crash violated)", got, acked+inflight)
	}
	// Spot-check content through the snapshot read path: rows that
	// were only ever durable as page file + WAL tail.
	for _, id := range []int64{1, acked / 2, acked} {
		res, err := cc.Query(0, "SELECT payload FROM arch_history WHERE id = ?", sstore.Int(id))
		if err != nil {
			t.Fatalf("query id %d: %v", id, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Text() != archivePayload {
			t.Errorf("id %d: damaged row after recovery", id)
		}
	}
}

// reservePort grabs an ephemeral loopback port and releases it for the
// server to bind.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitForGenPages blocks until an archive page-file generation shows
// up in the snapshot dir (the auto-checkpoint policy runs on a 100ms
// tick).
func waitForGenPages(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			if strings.HasPrefix(ent.Name(), "snapshot.p0.arch_history.pages.g") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no archive page generation appeared in %s (entries: %v)", dir, ents)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// committedGenPages names the archive page file of the checkpoint
// generation the snapshot manifest commits.
func committedGenPages(t *testing.T, dir string) string {
	t.Helper()
	stamp, ok, err := wal.ReadSnapshotManifest(dir)
	if err != nil || !ok {
		t.Fatalf("no committed checkpoint manifest in %s (found %v): %v", dir, ok, err)
	}
	return filepath.Join(dir, fmt.Sprintf("snapshot.p0.arch_history.pages.g%d", stamp))
}

// verifyPageFile opens a page file and reads every block, which
// verifies the magic and CRC32-C frame of each page.
func verifyPageFile(t *testing.T, path string) {
	t.Helper()
	f, err := page.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	if f.Blocks() == 0 {
		t.Fatalf("%s holds no pages", path)
	}
	var p page.Page
	for b := page.BlockID(0); b < page.BlockID(f.Blocks()); b++ {
		if err := f.ReadBlock(b, &p); err != nil {
			t.Fatalf("block %d of %s failed validation: %v", b, path, err)
		}
	}
	fmt.Fprintf(os.Stderr, "verified %d CRC-framed pages in %s\n", f.Blocks(), filepath.Base(path))
}
