package experiments

import (
	"fmt"
	"time"

	"sstore/internal/leaderboard"
	"sstore/internal/pe"
	"sstore/internal/stream"
	"sstore/internal/types"
)

// Ablations isolates the contributions of individual design choices
// that the figures measure only in combination:
//
//   - index-vs-scan: the leaderboard workflow with and without the
//     phone index. This is S-Store's own version of the §4.6.3 Spark
//     analysis — validation by indexed lookup vs by table scan — and
//     quantifies why "providing a lookup rather than a table scan"
//     matters as state grows.
//   - batch-size: S-Store ingest with 1, 10, and 100 tuples per atomic
//     batch. Larger batches amortize per-TE overhead (§2.1's batching
//     primitive exists exactly for "bounding computation on streams").
//   - ee-triggers-off: the Figure 5 chain with triggers replaced by
//     in-procedure statements but *without* the simulated boundary
//     cost, separating the trigger mechanism's intrinsic overhead from
//     the crossing cost it avoids.
func Ablations(opts Options) (*Table, error) {
	table := newTable("ablation", "config", "metric", "value")

	// --- index vs scan ---
	votes := opts.n(1500, 10000)
	for _, indexed := range []bool{true, false} {
		tps, err := ablationIndex(indexed, votes)
		if err != nil {
			return nil, err
		}
		cfg := "indexed"
		if !indexed {
			cfg = "scan"
		}
		table.addRow("validation-lookup", cfg, "votes/s", tps)
	}

	// --- batch size ---
	tuples := opts.n(3000, 20000)
	for _, size := range []int{1, 10, 100} {
		tps, err := ablationBatchSize(size, tuples)
		if err != nil {
			return nil, err
		}
		table.addRow("batch-size", fmt.Sprint(size), "tuples/s", tps)
	}

	// --- EE trigger mechanism cost without boundary simulation ---
	window := time.Duration(opts.n(150, 400)) * time.Millisecond
	for _, mode := range []string{"ee-triggers", "inline-sql"} {
		tps, err := ablationTriggerMechanism(mode == "ee-triggers", window)
		if err != nil {
			return nil, err
		}
		table.addRow("trigger-mechanism", mode, "txn/s", tps)
	}
	return table, nil
}

// ablationIndex runs the S-Store leaderboard with or without the
// unique phone index (scan mode drops it, so validation scans the
// votes table per vote).
func ablationIndex(indexed bool, votes int) (float64, error) {
	cfg := leaderboard.Config{}
	eng, err := pe.NewEngine(pe.Options{})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	seed := func(stmt string) error {
		_, err := eng.AdHoc(0, stmt)
		return err
	}
	if indexed {
		err = leaderboard.SetupSchema(eng, cfg, seed)
	} else {
		err = leaderboard.SetupSchemaNoPhoneIndex(eng, cfg, seed)
	}
	if err != nil {
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
	gen := leaderboard.NewGenerator(23, cfg)
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

// ablationBatchSize pushes the same tuple count through the chain
// workflow with different atomic-batch sizes.
func ablationBatchSize(batchSize, tuples int) (float64, error) {
	eng, err := chainEngine(2, true, pe.Options{})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	start := time.Now()
	batches := tuples / batchSize
	for b := 1; b <= batches; b++ {
		rows := make([]types.Row, batchSize)
		for i := range rows {
			rows[i] = intRow(int64(b*batchSize + i))
		}
		if err := eng.Ingest("cs1", &stream.Batch{ID: int64(b), Rows: rows}); err != nil {
			return 0, err
		}
	}
	if err := eng.Drain(); err != nil {
		return 0, err
	}
	if err := eng.TriggerErr(); err != nil {
		return 0, err
	}
	return float64(batches*batchSize) / time.Since(start).Seconds(), nil
}

// ablationTriggerMechanism compares the EE-trigger machinery to plain
// in-procedure statements with the boundary simulation off, exposing
// the trigger dispatch cost itself.
func ablationTriggerMechanism(triggers bool, window time.Duration) (float64, error) {
	eng, err := pe.NewEngine(pe.Options{})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	if err := eng.ExecDDL("CREATE TABLE ab_sink (v BIGINT)"); err != nil {
		return 0, err
	}
	for i := 1; i <= 4; i++ {
		if err := eng.ExecDDL(fmt.Sprintf("CREATE STREAM ab_s%d (v BIGINT)", i)); err != nil {
			return 0, err
		}
	}
	if triggers {
		for i := 1; i <= 3; i++ {
			target := fmt.Sprintf("ab_s%d", i+1)
			if i == 3 {
				target = "ab_sink"
			}
			if err := eng.AddEETrigger(fmt.Sprintf("ab_s%d", i),
				fmt.Sprintf("INSERT INTO %s SELECT v FROM ab_s%d", target, i)); err != nil {
				return 0, err
			}
		}
		err = eng.RegisterProc(&pe.StoredProc{Name: "AB", Func: func(ctx *pe.ProcCtx) error {
			_, err := ctx.Query("INSERT INTO ab_s1 VALUES (?)", ctx.Params()[0])
			return err
		}})
	} else {
		err = eng.RegisterProc(&pe.StoredProc{Name: "AB", Func: func(ctx *pe.ProcCtx) error {
			if _, err := ctx.Query("INSERT INTO ab_s1 VALUES (?)", ctx.Params()[0]); err != nil {
				return err
			}
			for i := 1; i <= 3; i++ {
				target := fmt.Sprintf("ab_s%d", i+1)
				if i == 3 {
					target = "ab_sink"
				}
				if _, err := ctx.Query(fmt.Sprintf("INSERT INTO %s SELECT v FROM ab_s%d", target, i)); err != nil {
					return err
				}
				if _, err := ctx.Query(fmt.Sprintf("DELETE FROM ab_s%d", i)); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	if err != nil {
		return 0, err
	}
	v := int64(0)
	return measureRate(window, func() error {
		v++
		_, err := eng.Call("AB", types.Row{types.NewInt(v)})
		return err
	})
}
