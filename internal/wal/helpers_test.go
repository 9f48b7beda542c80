package wal

import (
	"fmt"
	"io"
	"os"
)

// Helpers the tests read logs through; the engine itself never needs them.

// Durable returns the highest LSN durable per the sync policy: under
// SyncGroup and SyncEachCommit every record this logger holds at or
// below it survives a crash; SyncNone promises nothing and reports the
// last append.
func (l *Logger) Durable() uint64 { return l.durable.Load() }

// ReadAll streams every intact record from a log file, stopping
// cleanly at a torn tail (the expected state after a crash).
func ReadAll(path string) ([]*Record, error) {
	r, err := OpenReader(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	defer r.Close()
	var recs []*Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("wal: read: %w", err)
		}
		recs = append(recs, rec)
	}
}

// Partitions returns the number of per-partition logs.
func (s *LogSet) Partitions() int { return len(s.loggers) }
