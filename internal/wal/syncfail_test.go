package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSyncFailureIsStickyAndNeverOverReports fails the Nth fsync of a
// SyncGroup log under concurrent appenders and checks fail-stop: no
// LSN above the last good sync is ever reported durable — by Durable,
// by the OnDurable callback, or by an Append returning nil — and every
// later append returns the sticky error. The segmented case lands the
// failure on the sync that seals a full segment.
func TestSyncFailureIsStickyAndNeverOverReports(t *testing.T) {
	for _, tc := range []struct {
		name    string
		segment int64
		failAt  int32
	}{
		{"active", 0, 4},
		{"sealed", 64, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := Open(Options{
				Path:         filepath.Join(t.TempDir(), "cmd.log"),
				Policy:       SyncGroup,
				SegmentBytes: tc.segment,
			})
			if err != nil {
				t.Fatal(err)
			}
			injected := errors.New("injected sync failure")
			var calls atomic.Int32
			l.syncFile = func(f *os.File) error {
				if calls.Add(1) >= tc.failAt {
					return injected
				}
				return f.Sync()
			}
			type report struct {
				lsn uint64
				err error
			}
			var mu sync.Mutex
			var reports []report
			l.OnDurable(func(lsn uint64, err error) {
				mu.Lock()
				reports = append(reports, report{lsn, err})
				mu.Unlock()
			})

			const appenders = 4
			type outcome struct {
				lsn uint64
				err error
			}
			results := make(chan outcome, 1024)
			var wg sync.WaitGroup
			for g := 0; g < appenders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						lsn, err := l.Append(testRecord(KindOLTP, "F", int64(g*1000+i)))
						results <- outcome{lsn, err}
						if err != nil {
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(results)

			durable := l.Durable()
			failed := 0
			for r := range results {
				switch {
				case r.err == nil && r.lsn > durable:
					t.Errorf("Append of LSN %d returned nil above the durable LSN %d", r.lsn, durable)
				case r.err != nil:
					failed++
					if !errors.Is(r.err, injected) {
						t.Errorf("append error %v does not wrap the sync failure", r.err)
					}
					if r.lsn != 0 && r.lsn <= durable {
						t.Errorf("LSN %d failed at or below the durable LSN %d", r.lsn, durable)
					}
				}
			}
			if failed != appenders {
				t.Fatalf("%d appenders saw the failure, want all %d", failed, appenders)
			}
			mu.Lock()
			sawErr := false
			for _, r := range reports {
				if r.err == nil && r.lsn > durable {
					t.Errorf("OnDurable reported LSN %d durable, above the last good sync %d", r.lsn, durable)
				}
				if r.err != nil {
					sawErr = true
					if r.lsn != durable {
						t.Errorf("failure report carries LSN %d, want the last durable %d", r.lsn, durable)
					}
				}
			}
			mu.Unlock()
			if !sawErr {
				t.Error("OnDurable never reported the sync failure")
			}
			callsAtStop := calls.Load()
			if _, err := l.AppendAsync(testRecord(KindOLTP, "late", 0)); !errors.Is(err, injected) {
				t.Errorf("AppendAsync after the failure = %v, want the sticky error", err)
			}
			if err := l.WaitDurable(l.seq.Load()); !errors.Is(err, injected) {
				t.Errorf("WaitDurable after the failure = %v, want the sticky error", err)
			}
			if err := l.Close(); !errors.Is(err, injected) {
				t.Errorf("Close = %v, want the sticky error", err)
			}
			if got := calls.Load(); got != callsAtStop {
				t.Errorf("log kept syncing after it failed: %d more syncs", got-callsAtStop)
			}
			if got := l.Durable(); got != durable {
				t.Errorf("durable LSN moved from %d to %d after the failure", durable, got)
			}
		})
	}
}
