package experiments

import (
	"fmt"
	"os"
	"time"

	"sstore/internal/linearroad"
	"sstore/internal/pe"
	"sstore/internal/recovery"
	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/wal"
	"sstore/internal/workflow"
)

// scaleDispatch is the simulated PE→EE crossing cost for the scaling
// probes. It is deliberately heavier than DefaultEEDispatch so each
// interior TE's cost is dominated by boundary waits the partitions can
// overlap — which is what makes the experiment meaningful on any host,
// including single-CPU CI runners where partitions cannot add raw
// compute. On real multi-core hardware the same benchmark additionally
// scales the compute itself.
const scaleDispatch = 250 * time.Microsecond

// scaleKeySpace is the number of distinct routing keys the synthetic
// workload spreads interior batches over; fixed so every partition
// count runs the identical workload.
const scaleKeySpace = 8

// scaleWorkQueries is how many statements the interior SP issues per
// batch (each paying one boundary crossing); the border SP issues one.
const scaleWorkQueries = 8

// Scale measures whole-workflow throughput as the partition count
// grows, with PartitionBy spreading *interior* batches across
// partitions: the border SP admits every batch on partition 0 and the
// heavy interior SP runs wherever the batch's key routes it. This is
// the generalization of the paper's §4.7 x-way scaling past the border
// — without interior routing, a workflow is pinned to the partition
// that ingested it and extra partitions add nothing. A Linear Road
// x-way run (border and minute-mark batches both routed by x-way)
// rides along as the realistic workload.
//
// The routed-pipeline-logged variant reruns the synthetic pipeline
// with strong command logging under group commit: every TE's reply
// waits on its partition's log. With the sharded log set each
// partition flushes its own file, so the logged workflow still scales
// with partitions; a shared log would re-serialize on one mutex and
// one fsync queue exactly the work the routing spread out.
func Scale(opts Options) (*Table, error) {
	table := newTable("workload", "partitions", "workflows_per_sec", "speedup_vs_1p")
	parts := opts.pick([]int{1, 4}, []int{1, 2, 4, 8})
	workloads := []struct {
		name  string
		probe func(Options, int) (float64, error)
	}{
		{"routed-pipeline", scaleRoutedProbe},
		{"routed-pipeline-logged", scaleRoutedLoggedProbe},
		{"linearroad-xway", scaleLinearRoadProbe},
	}
	for _, w := range workloads {
		var base float64
		for _, np := range parts {
			tput, err := w.probe(opts, np)
			if err != nil {
				return nil, fmt.Errorf("scale %s p=%d: %w", w.name, np, err)
			}
			if np == 1 {
				base = tput
			}
			speedup := 0.0
			if base > 0 {
				speedup = tput / base
			}
			table.addRow(w.name, np, tput, speedup)
		}
	}
	return table, nil
}

// scaleRoutedEngine builds the synthetic pipeline: border SP "Admit"
// copies each batch from scale_in to scale_jobs; interior SP "Work"
// issues scaleWorkQueries statements against the batch and records the
// outcome. PartitionBy pins the border stream to partition 0 and routes
// scale_jobs by the key every tuple of a batch shares.
func scaleRoutedEngine(parts int, base pe.Options) (*pe.Engine, error) {
	base.Partitions = parts
	base.EEDispatch = scaleDispatch
	if base.PartitionBy == nil {
		base.PartitionBy = func(streamName string, batch []types.Row) int {
			if streamName != "scale_jobs" || len(batch) == 0 {
				return 0
			}
			return int(batch[0][0].Int()) % parts
		}
	}
	eng, err := pe.NewEngine(base)
	if err != nil {
		return nil, err
	}
	for _, ddl := range []string{
		"CREATE STREAM scale_in (k BIGINT, v BIGINT)",
		"CREATE STREAM scale_jobs (k BIGINT, v BIGINT)",
		"CREATE TABLE scale_results (k BIGINT, v BIGINT)",
	} {
		if err := eng.ExecDDL(ddl); err != nil {
			eng.Close()
			return nil, err
		}
	}
	err = eng.RegisterProc(&pe.StoredProc{Name: "Admit", Func: func(ctx *pe.ProcCtx) error {
		_, err := ctx.Query("INSERT INTO scale_jobs SELECT k, v FROM scale_in")
		return err
	}})
	if err != nil {
		eng.Close()
		return nil, err
	}
	err = eng.RegisterProc(&pe.StoredProc{Name: "Work", Func: func(ctx *pe.ProcCtx) error {
		for i := 0; i < scaleWorkQueries-1; i++ {
			if _, err := ctx.Query("SELECT COUNT(*) FROM scale_jobs"); err != nil {
				return err
			}
		}
		_, err := ctx.Query("INSERT INTO scale_results SELECT k, v FROM scale_jobs")
		return err
	}})
	if err != nil {
		eng.Close()
		return nil, err
	}
	w, err := workflow.New("scale", []workflow.Node{
		{SP: "Admit", Input: "scale_in", Outputs: []string{"scale_jobs"}},
		{SP: "Work", Input: "scale_jobs"},
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	if err := eng.DeployWorkflow(w); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

func scaleRoutedProbe(opts Options, parts int) (float64, error) {
	eng, err := scaleRoutedEngine(parts, pe.Options{})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	return driveScaleRouted(opts, eng)
}

// driveScaleRouted pushes the keyed batch stream through a routed
// pipeline engine and reports workflows per second.
func driveScaleRouted(opts Options, eng *pe.Engine) (float64, error) {
	n := opts.n(150, 600)
	tput, err := measureThroughput(n,
		func(i int) error {
			b := &stream.Batch{
				ID:   int64(i + 1),
				Rows: []types.Row{{types.NewInt(int64(i % scaleKeySpace)), types.NewInt(int64(i))}},
			}
			return eng.Ingest("scale_in", b)
		},
		eng.Drain,
	)
	if err != nil {
		return 0, err
	}
	if err := eng.TriggerErr(); err != nil {
		return 0, err
	}
	return tput, nil
}

// scaleRoutedLoggedProbe is the routed pipeline with durability on:
// strong recovery (border and interior TEs logged) under group
// commit, the log sharded one file per partition in a scratch
// directory. Border batches route by key too, so commits — and their
// log appends — land on every partition's own log rather than
// funneling through one file.
func scaleRoutedLoggedProbe(opts Options, parts int) (float64, error) {
	scratch, err := os.MkdirTemp(opts.Dir, "scale-log-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(scratch)
	routeBoth := func(streamName string, batch []types.Row) int {
		if len(batch) == 0 {
			return 0
		}
		return int(batch[0][0].Int()) % parts
	}
	eng, err := scaleRoutedEngine(parts, pe.Options{
		Recovery:    recovery.ModeStrong,
		LogPath:     scratch, // directory: one cmd-p<N>.log per partition
		LogPolicy:   wal.SyncGroup,
		SnapshotDir: scratch,
		PartitionBy: routeBoth,
	})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	return driveScaleRouted(opts, eng)
}

// scaleLinearRoadProbe drives the Linear Road workflow with a fixed
// x-way count, partitioned by x-way, under the same heavy boundary
// cost; throughput is position reports per second through the full
// workflow.
func scaleLinearRoadProbe(opts Options, parts int) (float64, error) {
	cfg := linearroad.Config{XWays: scaleKeySpace}
	eng, err := pe.NewEngine(pe.Options{
		Partitions:  parts,
		EEDispatch:  scaleDispatch,
		PartitionBy: linearroad.PartitionByXWay(parts),
	})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	seed := func(xway int, stmt string) error {
		_, err := eng.AdHoc(xway%parts, stmt)
		return err
	}
	if err := linearroad.SetupSchema(eng, cfg, seed); err != nil {
		return 0, err
	}
	for _, sp := range linearroad.Procs(cfg) {
		if err := eng.RegisterProc(sp); err != nil {
			return 0, err
		}
	}
	w, err := linearroad.Workflow()
	if err != nil {
		return 0, err
	}
	if err := eng.DeployWorkflow(w); err != nil {
		return 0, err
	}
	gen := linearroad.NewGenerator(23, cfg)
	n := opts.n(150, 600)
	tput, err := measureThroughput(n,
		func(i int) error {
			r := gen.Next()
			return eng.Ingest(linearroad.StreamReports, &stream.Batch{ID: int64(i + 1), Rows: []types.Row{r.Row()}})
		},
		eng.Drain,
	)
	if err != nil {
		return 0, err
	}
	if err := eng.TriggerErr(); err != nil {
		return 0, err
	}
	return tput, nil
}
