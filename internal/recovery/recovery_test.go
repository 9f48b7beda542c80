package recovery

import (
	"path/filepath"
	"testing"

	"sstore/internal/types"
	"sstore/internal/wal"
)

// fakeEngine records the driver's call sequence.
type fakeEngine struct {
	events   []string
	snapLSN  uint64
	replayed []*wal.Record
	trigOn   bool
}

func (f *fakeEngine) LoadSnapshot() (uint64, error) {
	f.events = append(f.events, "snapshot")
	return f.snapLSN, nil
}

func (f *fakeEngine) SetPETriggersEnabled(on bool) {
	f.trigOn = on
	if on {
		f.events = append(f.events, "triggers-on")
	} else {
		f.events = append(f.events, "triggers-off")
	}
}

func (f *fakeEngine) ReplayRecord(rec *wal.Record) error {
	f.replayed = append(f.replayed, rec)
	f.events = append(f.events, "replay-"+rec.SP)
	return nil
}

func (f *fakeEngine) FirePendingStreamTriggers() error {
	f.events = append(f.events, "fire-pending")
	return nil
}

// writeLog writes recs as partition 0's log of a one-partition log set
// under dir and returns the set's base path.
func writeLog(t *testing.T, dir string, recs []*wal.Record) string {
	t.Helper()
	base := filepath.Join(dir, "cmd.log")
	s, err := wal.OpenSet(wal.SetOptions{Path: base, Partitions: 1, Policy: wal.SyncEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := s.Append(0, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return base
}

func TestShouldLog(t *testing.T) {
	cases := []struct {
		mode Mode
		kind wal.RecordKind
		want bool
	}{
		{ModeNone, wal.KindBorder, false},
		{ModeNone, wal.KindOLTP, false},
		{ModeStrong, wal.KindBorder, true},
		{ModeStrong, wal.KindInterior, true},
		{ModeStrong, wal.KindOLTP, true},
		{ModeWeak, wal.KindBorder, true},
		{ModeWeak, wal.KindInterior, false},
		{ModeWeak, wal.KindOLTP, true},
	}
	for _, c := range cases {
		if got := c.mode.ShouldLog(c.kind); got != c.want {
			t.Errorf("%v.ShouldLog(%v) = %v, want %v", c.mode, c.kind, got, c.want)
		}
	}
}

func TestStrongOrderAndFiltering(t *testing.T) {
	recs := []*wal.Record{
		{Kind: wal.KindBorder, SP: "B1", BatchID: 1},
		{Kind: wal.KindInterior, SP: "I1", BatchID: 1},
		{Kind: wal.KindBorder, SP: "B2", BatchID: 2},
	}
	path := writeLog(t, t.TempDir(), recs)
	f := &fakeEngine{snapLSN: 1} // first record already in snapshot
	if _, err := Recover(ModeStrong, path, f); err != nil {
		t.Fatal(err)
	}
	want := []string{"triggers-off", "snapshot", "replay-I1", "replay-B2", "triggers-on", "fire-pending", "triggers-on"}
	if len(f.events) != len(want) {
		t.Fatalf("events = %v", f.events)
	}
	for i := range want {
		if f.events[i] != want[i] {
			t.Fatalf("event %d = %s, want %s (all: %v)", i, f.events[i], want[i], f.events)
		}
	}
}

func TestWeakSkipsInteriorAndFiresFirst(t *testing.T) {
	recs := []*wal.Record{
		{Kind: wal.KindBorder, SP: "B1", BatchID: 1, Batch: []types.Row{{types.NewInt(1)}}},
		{Kind: wal.KindInterior, SP: "I1", BatchID: 1},
		{Kind: wal.KindOLTP, SP: "O1"},
	}
	path := writeLog(t, t.TempDir(), recs)
	f := &fakeEngine{}
	if _, err := Recover(ModeWeak, path, f); err != nil {
		t.Fatal(err)
	}
	want := []string{"snapshot", "triggers-on", "fire-pending", "replay-B1", "replay-O1"}
	if len(f.events) != len(want) {
		t.Fatalf("events = %v", f.events)
	}
	for i := range want {
		if f.events[i] != want[i] {
			t.Fatalf("event %d = %s, want %s (all: %v)", i, f.events[i], want[i], f.events)
		}
	}
	if len(f.replayed) != 2 {
		t.Errorf("interior record must be skipped under weak replay")
	}
	if len(f.replayed[0].Batch) != 1 {
		t.Errorf("border record should carry its batch (upstream backup)")
	}
}

func TestModeNoneOnlyLoadsSnapshot(t *testing.T) {
	f := &fakeEngine{}
	if _, err := Recover(ModeNone, "/nonexistent", f); err != nil {
		t.Fatal(err)
	}
	if len(f.events) != 1 || f.events[0] != "snapshot" {
		t.Errorf("events = %v", f.events)
	}
}

func TestMissingLogIsEmptyReplay(t *testing.T) {
	f := &fakeEngine{}
	if _, err := Recover(ModeStrong, filepath.Join(t.TempDir(), "none.log"), f); err != nil {
		t.Fatal(err)
	}
	if len(f.replayed) != 0 {
		t.Errorf("replayed = %v", f.replayed)
	}
}
