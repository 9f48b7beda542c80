package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sstore/internal/netsim"
	"sstore/internal/pe"
	"sstore/internal/recovery"
	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/wal"
)

// Fig9a reproduces Figure 9a: logging overhead. The Figure 6 chain
// workflow runs with command logging enabled and group commit off —
// every logged commit fsyncs individually. Strong recovery logs every
// TE, so throughput falls as workflows grow; weak recovery logs only
// the border TE, one record per workflow regardless of length (§4.4).
func Fig9a(opts Options) (*Table, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("experiments: Fig9a needs Options.Dir")
	}
	triggers := opts.pick([]int{1, 4}, []int{1, 2, 4, 8})
	workflows := opts.n(100, 500)
	table := newTable("pe_triggers", "strong_wf_per_s", "weak_wf_per_s", "weak_speedup", "strong_log_recs", "weak_log_recs")

	for _, n := range triggers {
		spCount := n + 1
		strongTPS, strongRecs, err := fig9Run(opts.Dir, recovery.ModeStrong, spCount, workflows)
		if err != nil {
			return nil, err
		}
		weakTPS, weakRecs, err := fig9Run(opts.Dir, recovery.ModeWeak, spCount, workflows)
		if err != nil {
			return nil, err
		}
		table.addRow(n, strongTPS, weakTPS, weakTPS/strongTPS, int(strongRecs), int(weakRecs))
	}
	return table, nil
}

// fig9Run executes k workflows through the chain with logging and
// returns workflows/sec and log records written.
func fig9Run(dir string, mode recovery.Mode, spCount, k int) (float64, uint64, error) {
	scratch, err := os.MkdirTemp(dir, "fig9-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(scratch)
	eng, err := chainEngine(spCount, true, pe.Options{
		Recovery:    mode,
		LogPath:     filepath.Join(scratch, "cmd.log"),
		LogPolicy:   wal.SyncEachCommit,
		SnapshotDir: scratch,
	})
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	start := time.Now()
	for b := 1; b <= k; b++ {
		if err := eng.Ingest("cs1", &stream.Batch{ID: int64(b), Rows: []types.Row{intRow(int64(b))}}); err != nil {
			return 0, 0, err
		}
	}
	if err := eng.Drain(); err != nil {
		return 0, 0, err
	}
	if err := eng.TriggerErr(); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	appends, _ := eng.Stats().LogAppends, 0
	return float64(k) / elapsed.Seconds(), appends, nil
}

// Fig9b reproduces Figure 9b: recovery time. After running R workflows
// under each mode, the engine "crashes" and a fresh engine replays the
// log. Strong recovery replays every TE through the client — one round
// trip per logged record — so its recovery time grows with workflow
// length; weak recovery replays only border records and re-derives the
// interior TEs inside the engine via PE triggers, staying roughly flat
// (§4.4).
func Fig9b(opts Options) (*Table, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("experiments: Fig9b needs Options.Dir")
	}
	triggers := opts.pick([]int{1, 4}, []int{1, 2, 4, 8})
	workflows := opts.n(50, 200)
	table := newTable("pe_triggers", "strong_recovery_ms", "weak_recovery_ms", "strong_over_weak")

	for _, n := range triggers {
		spCount := n + 1
		strongMS, err := fig9Recover(opts.Dir, recovery.ModeStrong, spCount, workflows)
		if err != nil {
			return nil, err
		}
		weakMS, err := fig9Recover(opts.Dir, recovery.ModeWeak, spCount, workflows)
		if err != nil {
			return nil, err
		}
		table.addRow(n, strongMS, weakMS, strongMS/weakMS)
	}
	return table, nil
}

func fig9Recover(dir string, mode recovery.Mode, spCount, k int) (float64, error) {
	scratch, err := os.MkdirTemp(dir, "fig9b-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(scratch)
	mk := func() (*pe.Engine, error) {
		return chainEngine(spCount, true, pe.Options{
			ClientRTT:   netsim.DefaultClientRTT, // recovery replay is client-driven
			Recovery:    mode,
			LogPath:     filepath.Join(scratch, "cmd.log"),
			LogPolicy:   wal.SyncEachCommit,
			SnapshotDir: scratch,
		})
	}
	eng, err := mk()
	if err != nil {
		return 0, err
	}
	for b := 1; b <= k; b++ {
		if err := eng.Ingest("cs1", &stream.Batch{ID: int64(b), Rows: []types.Row{intRow(int64(b))}}); err != nil {
			eng.Close()
			return 0, err
		}
	}
	if err := eng.Drain(); err != nil {
		eng.Close()
		return 0, err
	}
	if err := eng.Close(); err != nil { // crash: memory gone, log durable
		return 0, err
	}
	fresh, err := mk()
	if err != nil {
		return 0, err
	}
	defer fresh.Close()
	start := time.Now()
	if err := fresh.Recover(); err != nil {
		return 0, err
	}
	recoveryTime := time.Since(start)
	// Sanity: the last SP processed every workflow.
	if got := fresh.SPExecutions(fmt.Sprintf("ChainSP%d", spCount)); got != uint64(k) {
		return 0, fmt.Errorf("experiments: fig9b: recovered %d of %d workflows", got, k)
	}
	return float64(recoveryTime.Milliseconds()), nil
}
