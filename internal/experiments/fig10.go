package experiments

import (
	"path/filepath"
	"time"

	"sstore/internal/leaderboard"
	"sstore/internal/netsim"
	"sstore/internal/pe"
	"sstore/internal/recovery"
	"sstore/internal/stormlike"
	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/wal"
)

// Fig10 reproduces Figure 10: the leaderboard benchmark on modern
// stream processors, in two variants — the full workload with vote
// validation (left) and the simplified one without it (right).
// S-Store runs the transactional version with logging, one vote per
// batch. The Spark-Streaming-like engine needs micro-batches to
// perform at all, and with validation on it collapses: no index over
// state means every vote scans all recorded votes. The Trident-like
// engine keeps up with S-Store but pays an external-store hop per
// state access and manual windowing (§4.6).
// sparkScheduleOverhead is the per-micro-batch job cost charged to the
// Spark-like engine (driver scheduling, task serialization): a
// documented simulation parameter, conservative against Spark
// Streaming's observed per-batch overheads.
const sparkScheduleOverhead = 5 * time.Millisecond

func Fig10(opts Options) (*Table, error) {
	votes := opts.n(2000, 50000)
	cfgVal := leaderboard.Config{}
	cfgNoVal := leaderboard.Config{SkipValidation: true}
	table := newTable("system", "variant", "votes_per_s")

	type run struct {
		system  string
		variant string
		fn      func() (float64, error)
	}
	runs := []run{
		{"s-store", "validation", func() (float64, error) { return fig10SStore(opts, cfgVal, votes) }},
		{"spark-like", "validation", func() (float64, error) { return fig10Spark(cfgVal, votes, true) }},
		{"trident-like", "validation", func() (float64, error) { return fig10Trident(cfgVal, votes, true) }},
		{"s-store", "no-validation", func() (float64, error) { return fig10SStore(opts, cfgNoVal, votes) }},
		{"spark-like", "no-validation", func() (float64, error) { return fig10Spark(cfgNoVal, votes, false) }},
		{"trident-like", "no-validation", func() (float64, error) { return fig10Trident(cfgNoVal, votes, false) }},
	}
	for _, r := range runs {
		tps, err := r.fn()
		if err != nil {
			return nil, err
		}
		table.addRow(r.system, r.variant, tps)
	}
	return table, nil
}

// fig10SStore runs the transactional workflow, logging on (weak mode,
// per-commit sync), one vote per batch.
func fig10SStore(opts Options, cfg leaderboard.Config, votes int) (float64, error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	scratch, err := filepath.Abs(dir)
	if err != nil {
		return 0, err
	}
	// Logging is on (weak mode) but buffered rather than fsync-per-
	// commit: the comparison systems log and checkpoint
	// asynchronously ("workflows are logged asynchronously using
	// Storm's logging capabilities", §4.6.2; Spark checkpoints
	// asynchronously), so synchronous durability here would compare
	// unlike guarantees.
	eng, err := pe.NewEngine(pe.Options{
		ClientRTT:   netsim.DefaultClientRTT,
		EEDispatch:  netsim.DefaultEEDispatch,
		Recovery:    recovery.ModeWeak,
		LogPath:     filepath.Join(scratch, "fig10-cmd.log"),
		LogPolicy:   wal.SyncNone,
		SnapshotDir: scratch,
	})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	// Seeds are setup state re-issued at boot, like DDL; ad-hoc writes
	// are rejected while command logging is on.
	seed := func(stmt string) error { return eng.ExecDDL(stmt) }
	if err := leaderboard.SetupSchema(eng, cfg, seed); err != nil {
		return 0, err
	}
	for _, sp := range leaderboard.Procs(cfg) {
		if err := eng.RegisterProc(sp); err != nil {
			return 0, err
		}
	}
	w, err := leaderboard.Workflow()
	if err != nil {
		return 0, err
	}
	if err := eng.DeployWorkflow(w); err != nil {
		return 0, err
	}
	gen := leaderboard.NewGenerator(13, cfg)
	start := time.Now()
	for b := 1; b <= votes; b++ {
		if err := eng.Ingest(leaderboard.StreamVotesIn, &stream.Batch{ID: int64(b), Rows: []types.Row{gen.Next()}}); err != nil {
			return 0, err
		}
	}
	if err := eng.Drain(); err != nil {
		return 0, err
	}
	if err := eng.TriggerErr(); err != nil {
		return 0, err
	}
	return float64(votes) / time.Since(start).Seconds(), nil
}

// fig10Spark drives the D-Stream deployment with 100-vote
// micro-batches (one vote per batch would be "extremely poor", §4.6.1,
// so the comparison grants Spark its batching).
func fig10Spark(cfg leaderboard.Config, votes int, validation bool) (float64, error) {
	const microBatch = 100
	s := leaderboard.NewSparkLeaderboard(cfg, 4, 10, validation)
	s.ScheduleOverhead = sparkScheduleOverhead
	gen := leaderboard.NewGenerator(13, cfg)
	start := time.Now()
	batch := make([]types.Row, 0, microBatch)
	for i := 0; i < votes; i++ {
		batch = append(batch, gen.Next())
		if len(batch) == microBatch {
			if _, err := s.ProcessBatch(batch); err != nil {
				return 0, err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if _, err := s.ProcessBatch(batch); err != nil {
			return 0, err
		}
	}
	return float64(votes) / time.Since(start).Seconds(), nil
}

// fig10Trident drives the Trident deployment with 50-vote transactional
// batches against the external store.
func fig10Trident(cfg leaderboard.Config, votes int, validation bool) (float64, error) {
	const batchSize = 50
	t := leaderboard.NewTridentLeaderboard(cfg, stormlike.DefaultKVHop, validation)
	gen := leaderboard.NewGenerator(13, cfg)
	start := time.Now()
	batch := make([]types.Row, 0, batchSize)
	for i := 0; i < votes; i++ {
		batch = append(batch, gen.Next())
		if len(batch) == batchSize {
			if err := t.ProcessBatch(batch); err != nil {
				return 0, err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := t.ProcessBatch(batch); err != nil {
			return 0, err
		}
	}
	return float64(votes) / time.Since(start).Seconds(), nil
}
