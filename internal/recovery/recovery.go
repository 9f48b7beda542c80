// Package recovery implements the paper's two crash-recovery schemes
// (§2.4, §3.2.5) as drivers over an abstract engine:
//
//   - Strong recovery: every committed TE (OLTP, border, interior) is
//     in the command log. Replay applies the snapshot, disables PE
//     triggers so interior TEs are not re-triggered redundantly,
//     merge-reads every partition's log in global commit-sequence
//     order and re-executes that merged sequence, re-enables PE
//     triggers, and finally fires triggers for any stream tables left
//     non-empty. The result is exactly the pre-crash state.
//
//   - Weak recovery (upstream backup): only border and OLTP TEs are
//     logged. Replay applies the snapshot, first fires PE triggers for
//     stream tables the snapshot recovered non-empty (their interior
//     consumers committed after the snapshot but were never logged),
//     then re-executes each partition's log independently with PE
//     triggers enabled so interior TEs are re-derived. Partitions'
//     border TEs are mutually independent, so per-partition order is
//     all that replay needs; the result is a legal state — identical
//     to some correct execution, though not necessarily the one that
//     was interrupted.
//
// The command log is sharded one file per partition (wal.LogSet); both
// drivers handle a torn tail independently per log.
package recovery

import (
	"fmt"
	"io"

	"sstore/internal/wal"
)

// Mode selects the recovery scheme, which also dictates what the
// engine logs during normal operation.
type Mode uint8

const (
	// ModeNone disables command logging (the paper's throughput
	// experiments run with logging off unless stated).
	ModeNone Mode = iota
	// ModeStrong logs every TE.
	ModeStrong
	// ModeWeak logs only border and OLTP TEs.
	ModeWeak
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeStrong:
		return "strong"
	case ModeWeak:
		return "weak"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ShouldLog reports whether a TE of the given kind is recorded in the
// command log under this mode.
func (m Mode) ShouldLog(kind wal.RecordKind) bool {
	switch m {
	case ModeStrong:
		return true
	case ModeWeak:
		return kind != wal.KindInterior
	default:
		return false
	}
}

// Engine is the replay surface the drivers need. *pe.Engine implements
// it; tests use fakes.
type Engine interface {
	// LoadSnapshot restores the latest checkpoint into the catalog,
	// returning the LSN of the last log record it reflects (0 when
	// no checkpoint exists).
	LoadSnapshot() (uint64, error)
	// SetPETriggersEnabled toggles PE-trigger firing engine-wide.
	SetPETriggersEnabled(enabled bool)
	// ReplayRecord re-executes one logged TE synchronously,
	// including (when PE triggers are enabled) everything it
	// triggers downstream.
	ReplayRecord(rec *wal.Record) error
	// FirePendingStreamTriggers fires PE triggers for every stream
	// table that currently holds tuples, running the triggered TEs
	// to completion.
	FirePendingStreamTriggers() error
}

// Recover runs the selected scheme against the engine, reading the
// per-partition command logs under logPath (a directory or file
// prefix; see wal.SetOptions). The engine must be quiesced (no client
// traffic) for the duration. It returns the highest log sequence
// number observed across every record read — including records the
// replay filtered out — so the caller can re-arm its commit sequence
// without re-reading the logs.
func Recover(mode Mode, logPath string, eng Engine) (uint64, error) {
	switch mode {
	case ModeNone:
		_, err := eng.LoadSnapshot()
		return 0, err
	case ModeStrong:
		return recoverStrong(logPath, eng)
	case ModeWeak:
		return recoverWeak(logPath, eng)
	default:
		return 0, fmt.Errorf("recovery: unknown mode %v", mode)
	}
}

func recoverStrong(logPath string, eng Engine) (uint64, error) {
	// Disable triggers before touching state: replaying an interior
	// TE's upstream must not re-trigger it (§3.2.5).
	eng.SetPETriggersEnabled(false)
	defer eng.SetPETriggersEnabled(true)

	lastLSN, err := eng.LoadSnapshot()
	if err != nil {
		return 0, fmt.Errorf("recovery(strong): snapshot: %w", err)
	}
	// Merge-stream the partition logs in global-sequence order; one
	// record per shard is in memory at a time.
	r, err := wal.OpenSetReader(logPath)
	if err != nil {
		return 0, fmt.Errorf("recovery(strong): log: %w", err)
	}
	defer r.Close()
	var maxLSN uint64
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return maxLSN, fmt.Errorf("recovery(strong): log: %w", err)
		}
		if rec.LSN > maxLSN {
			maxLSN = rec.LSN
		}
		if rec.LSN <= lastLSN {
			continue // already reflected in the snapshot
		}
		if err := eng.ReplayRecord(rec); err != nil {
			return maxLSN, fmt.Errorf("recovery(strong): replay LSN %d (%s): %w", rec.LSN, rec.SP, err)
		}
	}
	// Triggers back on, then drain streams that still hold batches:
	// their downstream TEs had not committed before the crash.
	eng.SetPETriggersEnabled(true)
	if err := eng.FirePendingStreamTriggers(); err != nil {
		return maxLSN, fmt.Errorf("recovery(strong): pending triggers: %w", err)
	}
	return maxLSN, nil
}

func recoverWeak(logPath string, eng Engine) (uint64, error) {
	lastLSN, err := eng.LoadSnapshot()
	if err != nil {
		return 0, fmt.Errorf("recovery(weak): snapshot: %w", err)
	}
	// Interior work recovered inside the snapshot's stream tables is
	// re-derived by firing their triggers before replaying the log
	// (§3.2.5).
	eng.SetPETriggersEnabled(true)
	if err := eng.FirePendingStreamTriggers(); err != nil {
		return 0, fmt.Errorf("recovery(weak): pending triggers: %w", err)
	}
	// Each partition's log replays independently, in its own append
	// order: border batches on different partitions are mutually
	// independent, and PE triggers re-derive the interior work —
	// including cross-partition routing — as the replay runs. Each
	// shard is streamed record by record.
	paths, err := wal.SetPaths(logPath)
	if err != nil {
		return 0, fmt.Errorf("recovery(weak): log: %w", err)
	}
	var maxLSN uint64
	for _, path := range paths {
		shardMax, err := replayWeakShard(path, lastLSN, eng)
		if shardMax > maxLSN {
			maxLSN = shardMax
		}
		if err != nil {
			return maxLSN, err
		}
	}
	return maxLSN, nil
}

func replayWeakShard(path string, lastLSN uint64, eng Engine) (uint64, error) {
	r, err := wal.OpenReader(path)
	if err != nil {
		return 0, fmt.Errorf("recovery(weak): log: %w", err)
	}
	defer r.Close()
	var maxLSN uint64
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return maxLSN, nil
		}
		if err != nil {
			return maxLSN, fmt.Errorf("recovery(weak): log: %w", err)
		}
		if rec.LSN > maxLSN {
			maxLSN = rec.LSN
		}
		if rec.LSN <= lastLSN {
			continue
		}
		if rec.Kind == wal.KindInterior {
			// A weak-mode log contains no interior records; tolerate
			// them (e.g. a log written under strong mode) by
			// skipping — the border replay re-derives their work.
			continue
		}
		if err := eng.ReplayRecord(rec); err != nil {
			return maxLSN, fmt.Errorf("recovery(weak): replay LSN %d (%s): %w", rec.LSN, rec.SP, err)
		}
	}
}
