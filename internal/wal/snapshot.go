package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sstore/internal/storage"
)

// Snapshot files persist a transaction-consistent checkpoint of every
// table (§3.1). Because partitions run transactions serially and the
// snapshot is taken between transactions, the image never contains
// uncommitted changes, so recovery needs no undo log — matching the
// paper's description of H-Store checkpoints.
//
// Layout: magic "SSSN" | u64 lastLSN | uvarint tableCount | per-table
// [uvarint len | image] ... | u32 crc32c(everything after magic).

const snapshotMagic = "SSSN"

// WriteSnapshot atomically writes a checkpoint of the given tables,
// recording the LSN of the last command-log record already reflected
// in it. It writes and syncs a temp file, then renames it, so a crash
// mid-snapshot leaves the previous checkpoint intact; the rename itself
// becomes durable when WriteSnapshotManifest syncs the directory.
func WriteSnapshot(path string, lastLSN uint64, tables []*storage.Table) error {
	buf := []byte(snapshotMagic)
	buf = binary.LittleEndian.AppendUint64(buf, lastLSN)
	buf = binary.AppendUvarint(buf, uint64(len(tables)))
	for _, t := range tables {
		img := storage.EncodeTable(nil, t)
		buf = binary.AppendUvarint(buf, uint64(len(img)))
		buf = append(buf, img...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[len(snapshotMagic):], crcTable))

	tmp := path + ".tmp"
	if err := writeSynced(tmp, buf); err != nil {
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	return nil
}

// snapshotSync fsyncs one checkpoint file or directory. Tests replace
// it to observe the order of syncs and renames.
var snapshotSync = (*os.File).Sync

// writeSynced writes data to a new file at path and syncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := snapshotSync(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory, making the renames into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := snapshotSync(d); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// LoadSnapshot restores a checkpoint into the catalog's existing
// tables (matched by name) and returns the checkpoint's lastLSN. A
// missing file is an error: callers load only files a committed
// manifest names.
func LoadSnapshot(path string, lookup func(name string) (*storage.Table, bool)) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wal: snapshot read: %w", err)
	}
	if len(data) < len(snapshotMagic)+8+4 || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return 0, fmt.Errorf("wal: %s is not a snapshot file", path)
	}
	body := data[len(snapshotMagic) : len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTable) != wantCRC {
		return 0, fmt.Errorf("wal: snapshot %s is corrupt", path)
	}
	lastLSN := binary.LittleEndian.Uint64(body)
	b := body[8:]
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, fmt.Errorf("wal: snapshot %s: bad table count", path)
	}
	b = b[n:]
	for i := uint64(0); i < count; i++ {
		l, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < l {
			return 0, fmt.Errorf("wal: snapshot %s: truncated table %d", path, i)
		}
		img := b[n : n+int(l)]
		b = b[n+int(l):]
		name, err := storage.DecodeTableName(img)
		if err != nil {
			return 0, err
		}
		t, ok := lookup(name)
		if !ok {
			return 0, fmt.Errorf("wal: snapshot table %q does not exist in catalog", name)
		}
		if _, err := storage.RestoreTable(t, img); err != nil {
			return 0, err
		}
	}
	return lastLSN, nil
}

// A multi-partition checkpoint is committed by a manifest: the
// per-partition snapshot files of one checkpoint are written under
// generation names (snapshot.p<N>.g<stamp>) and the manifest records
// the committed generation last, atomically. Recovery loads only the
// generation the manifest names, so a crash between per-partition
// snapshot writes can never mix stamps — without the manifest, a
// torn checkpoint would leave some partitions at the new stamp and
// others at the old one, and a max-stamp replay filter would skip
// records the older partitions still need.

const manifestName = "snapshot.manifest"
const manifestMagic = "SSMF"

// WriteSnapshotManifest atomically and durably commits stamp as the
// snapshot generation in dir. The directory is synced before the
// manifest rename, so every generation file renamed or written into it
// is durable before the manifest can name it, and again after, so the
// commit is durable before the caller compacts the log behind it.
func WriteSnapshotManifest(dir string, stamp uint64) error {
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := writeSynced(tmp, fmt.Appendf(nil, "%s %d\n", manifestMagic, stamp)); err != nil {
		return fmt.Errorf("wal: manifest: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("wal: manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("wal: manifest: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("wal: manifest: %w", err)
	}
	return nil
}

// ReadSnapshotManifest returns the committed generation stamp;
// ok=false means no manifest exists, so no checkpoint was ever
// committed in dir.
func ReadSnapshotManifest(dir string) (stamp uint64, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("wal: manifest: %w", err)
	}
	fields := strings.Fields(string(data))
	if len(fields) != 2 || fields[0] != manifestMagic {
		return 0, false, fmt.Errorf("wal: manifest: malformed %q", string(data))
	}
	stamp, perr := strconv.ParseUint(fields[1], 10, 64)
	if perr != nil {
		return 0, false, fmt.Errorf("wal: manifest: %w", perr)
	}
	return stamp, true, nil
}
