package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"sstore/internal/types"
)

// Snapshot encoding for tables. A snapshot captures data only — rows
// with their tuple metadata, plus window scalar bookkeeping — not
// schema or triggers: those are re-created by the application's DDL at
// boot, exactly as in H-Store's checkpoint scheme (§3.1), and recovery
// then loads the snapshot into the empty tables.
//
//	table   := uvarint-len name-bytes
//	           nextTID:uvarint
//	           window:u8 body
//	           uvarint-rowcount row*
//	row     := tid:uvarint batch:varint staged:u8 types.Row
//
// The window byte is 0 (not a window), 2 (a window: the scalars
// filled:u8 started:u8 start:varint slides:uvarint, the time-disorder
// tracking maxTS:varint maxTSSet:u8 timeDisorder:u8, and the maintained
// aggregate accumulators: uvarint-count, then per aggregate fn:u8
// col:varint n:varint sumI:varint sumF:8-byte-LE bestN:varint dirty:u8
// best:types.Value), or 3 (archive stub: the table's rows travel as a
// checkpointed page file, and the snapshot records only
// uvarint-rowcount for validation — no row section follows). Any other
// value, 1 included, is rejected. Window deques are not
// encoded: rows carry their staging flags and TIDs, so the deques
// rebuild during row restore. Aggregate accumulators also rebuild from
// the rows; the encoded states overwrite the rebuilt ones so float
// sums come back bit-for-bit identical to the checkpointed engine. The
// disorder flags are encoded because snapshot row order is t.order —
// which a rollback past a compaction can permute away from TID order —
// so re-deriving them from restore order alone could silently resume
// unsafe prefix expiry; the decoded flags are OR'd over the rebuilt
// ones (a spuriously set flag only costs a sweep, a missing one loses
// tuples' expiry).

// EncodeTable appends the table's snapshot image to buf.
func EncodeTable(buf []byte, t *Table) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t.name)))
	buf = append(buf, t.name...)
	buf = binary.AppendUvarint(buf, t.nextTID)
	if t.arch != nil {
		// Archive tables snapshot as page files beside the manifest (the
		// checkpoint copies the quiesced page file; see
		// Table.ArchiveCheckpoint). The snapshot stream carries only a
		// stub: marker byte 3 and the live row count, validated against
		// the restored page file.
		buf = append(buf, 3)
		return binary.AppendUvarint(buf, uint64(len(t.arch.loc)))
	}
	if t.window != nil {
		buf = append(buf, 2)
		buf = append(buf, b2u8(t.window.filled), b2u8(t.window.started))
		buf = binary.AppendVarint(buf, t.window.start)
		buf = binary.AppendUvarint(buf, t.window.slides)
		buf = binary.AppendVarint(buf, t.window.maxTS)
		buf = append(buf, b2u8(t.window.maxTSSet), b2u8(t.window.timeDisorder))
		buf = binary.AppendUvarint(buf, uint64(len(t.window.aggs)))
		for _, a := range t.window.aggs {
			buf = append(buf, uint8(a.fn))
			buf = binary.AppendVarint(buf, int64(a.col))
			buf = binary.AppendVarint(buf, a.state.n)
			buf = binary.AppendVarint(buf, a.state.sumI)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.state.sumF))
			buf = binary.AppendVarint(buf, a.state.bestN)
			buf = append(buf, b2u8(a.state.dirty))
			buf = types.EncodeValue(buf, a.state.best)
		}
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(t.Len()))
	t.ScanAll(func(meta TupleMeta, row types.Row) bool {
		buf = binary.AppendUvarint(buf, meta.TID)
		buf = binary.AppendVarint(buf, meta.BatchID)
		buf = append(buf, b2u8(meta.Staged))
		buf = types.EncodeRow(buf, row)
		return true
	})
	return buf
}

func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// DecodeTableName peeks the table name of the snapshot image at b
// without consuming it; used to route images to catalog tables.
func DecodeTableName(b []byte) (string, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return "", fmt.Errorf("storage: truncated snapshot table name")
	}
	return string(b[n : n+int(l)]), nil
}

// RestoreTable replaces the table's contents from a snapshot image,
// returning the number of bytes consumed. The table must already exist
// with its schema and indexes; its current contents are discarded.
func RestoreTable(t *Table, b []byte) (int, error) {
	name, err := DecodeTableName(b)
	if err != nil {
		return 0, err
	}
	l, n := binary.Uvarint(b)
	n += int(l)
	if name != t.name {
		return 0, fmt.Errorf("storage: snapshot for table %q applied to %q", name, t.name)
	}
	t.Truncate()
	nextTID, m := binary.Uvarint(b[n:])
	if m <= 0 {
		return 0, fmt.Errorf("storage: truncated snapshot of %s", name)
	}
	n += m
	if len(b) <= n {
		return 0, fmt.Errorf("storage: truncated snapshot of %s", name)
	}
	flag := b[n]
	n++
	if flag == 3 {
		// Archive stub: rows live in the checkpoint's page file, applied
		// afterwards by Table.ArchiveRestore; here only the expected row
		// count and the TID counter are recorded.
		if t.arch == nil {
			return 0, fmt.Errorf("storage: archive snapshot stub applied to non-archive table %s", name)
		}
		count, m := binary.Uvarint(b[n:])
		if m <= 0 {
			return 0, fmt.Errorf("storage: truncated archive row count of %s", name)
		}
		n += m
		t.arch.pendingRestore = true
		t.arch.expectRows = count
		if nextTID > t.nextTID {
			t.nextTID = nextTID
		}
		return n, nil
	}
	if flag != 0 && flag != 2 {
		return 0, fmt.Errorf("storage: unknown snapshot flag %d of %s", flag, name)
	}
	var aggStates []snapshotAggState
	var snapMaxTS int64
	var snapMaxTSSet, snapDisorder bool
	if flag == 2 {
		if t.window == nil {
			return 0, fmt.Errorf("storage: snapshot has window state but %s is not a window", name)
		}
		if len(b) < n+2 {
			return 0, fmt.Errorf("storage: truncated window state of %s", name)
		}
		t.window.filled = b[n] == 1
		t.window.started = b[n+1] == 1
		n += 2
		start, m := binary.Varint(b[n:])
		if m <= 0 {
			return 0, fmt.Errorf("storage: truncated window start of %s", name)
		}
		n += m
		slides, m := binary.Uvarint(b[n:])
		if m <= 0 {
			return 0, fmt.Errorf("storage: truncated window slides of %s", name)
		}
		n += m
		t.window.start = start
		t.window.slides = slides
		snapMaxTS, m = binary.Varint(b[n:])
		if m <= 0 {
			return 0, fmt.Errorf("storage: truncated window maxTS of %s", name)
		}
		n += m
		if len(b) < n+2 {
			return 0, fmt.Errorf("storage: truncated window flags of %s", name)
		}
		snapMaxTSSet = b[n] == 1
		snapDisorder = b[n+1] == 1
		n += 2
		aggStates, m, err = decodeAggStates(b[n:], name)
		if err != nil {
			return 0, err
		}
		n += m
	} else if t.window != nil {
		return 0, fmt.Errorf("storage: snapshot lacks window state for window table %s", name)
	}
	count, m := binary.Uvarint(b[n:])
	if m <= 0 {
		return 0, fmt.Errorf("storage: truncated row count of %s", name)
	}
	n += m
	for i := uint64(0); i < count; i++ {
		tid, m := binary.Uvarint(b[n:])
		if m <= 0 {
			return 0, fmt.Errorf("storage: truncated row %d of %s", i, name)
		}
		n += m
		batch, m := binary.Varint(b[n:])
		if m <= 0 {
			return 0, fmt.Errorf("storage: truncated batch of row %d of %s", i, name)
		}
		n += m
		if len(b) <= n {
			return 0, fmt.Errorf("storage: truncated staged flag of row %d of %s", i, name)
		}
		staged := b[n] == 1
		n++
		row, m, err := types.DecodeRow(b[n:])
		if err != nil {
			return 0, fmt.Errorf("storage: row %d of %s: %w", i, name, err)
		}
		n += m
		if err := t.RestoreRow(TupleMeta{TID: tid, BatchID: batch, Staged: staged}, row); err != nil {
			return 0, err
		}
	}
	// RestoreRow bumps nextTID to the max restored TID; honor the
	// snapshot's counter if it is further along.
	if nextTID > t.nextTID {
		t.nextTID = nextTID
	}
	// Row restore rebuilt every registered aggregate incrementally;
	// overwrite matching accumulators with the checkpointed state so
	// recovery reproduces the live engine's values exactly (float sums
	// are order-sensitive). States for aggregates no longer registered
	// by the booting application's DDL are dropped.
	for _, s := range aggStates {
		if a := t.findAggregate(s.fn, s.col); a != nil {
			isFloat := a.state.isFloat
			a.state = s.state
			a.state.isFloat = isFloat
		}
	}
	// Row restore re-derived the disorder tracking from restore order;
	// merge in the checkpointed flags, which saw the true activation
	// history (see the format comment).
	if t.window != nil {
		t.window.timeDisorder = t.window.timeDisorder || snapDisorder
		if snapMaxTSSet && (!t.window.maxTSSet || snapMaxTS > t.window.maxTS) {
			t.window.maxTS, t.window.maxTSSet = snapMaxTS, true
		}
	}
	return n, nil
}

// snapshotAggState is one decoded maintained-aggregate accumulator.
type snapshotAggState struct {
	fn    AggFunc
	col   int
	state aggState
}

// decodeAggStates parses a window's aggregate section, returning the
// states and bytes consumed.
func decodeAggStates(b []byte, name string) ([]snapshotAggState, int, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("storage: truncated aggregate count of %s", name)
	}
	// Each encoded aggregate needs at least 15 bytes (fn, three
	// single-byte varints, the 8-byte sum, dirty flag, a null value);
	// a count the remaining input cannot hold is corruption, and must
	// not reach the allocator.
	if count > uint64(len(b)-n)/15 {
		return nil, 0, fmt.Errorf("storage: aggregate count %d of %s exceeds snapshot size", count, name)
	}
	out := make([]snapshotAggState, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(b) <= n {
			return nil, 0, fmt.Errorf("storage: truncated aggregate %d of %s", i, name)
		}
		var s snapshotAggState
		s.fn = AggFunc(b[n])
		n++
		col, m := binary.Varint(b[n:])
		if m <= 0 {
			return nil, 0, fmt.Errorf("storage: truncated aggregate column of %s", name)
		}
		n += m
		s.col = int(col)
		if s.state.n, m = binary.Varint(b[n:]); m <= 0 {
			return nil, 0, fmt.Errorf("storage: truncated aggregate state of %s", name)
		}
		n += m
		if s.state.sumI, m = binary.Varint(b[n:]); m <= 0 {
			return nil, 0, fmt.Errorf("storage: truncated aggregate state of %s", name)
		}
		n += m
		if len(b) < n+8 {
			return nil, 0, fmt.Errorf("storage: truncated aggregate sum of %s", name)
		}
		s.state.sumF = math.Float64frombits(binary.LittleEndian.Uint64(b[n:]))
		n += 8
		if s.state.bestN, m = binary.Varint(b[n:]); m <= 0 {
			return nil, 0, fmt.Errorf("storage: truncated aggregate state of %s", name)
		}
		n += m
		if len(b) <= n {
			return nil, 0, fmt.Errorf("storage: truncated aggregate flags of %s", name)
		}
		s.state.dirty = b[n] == 1
		n++
		best, m, err := types.DecodeValue(b[n:])
		if err != nil {
			return nil, 0, fmt.Errorf("storage: aggregate extremum of %s: %w", name, err)
		}
		n += m
		s.state.best = best
		out = append(out, s)
	}
	return out, n, nil
}
