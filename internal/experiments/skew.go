package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sstore/internal/pe"
	"sstore/internal/types"
)

// The skew experiment measures what dependency-aware intra-partition
// parallelism (Options.Workers) buys when partitioning stops helping:
// client calls are routed by a zipfian draw over the partitions, so as
// the zipf exponent grows the load concentrates on partition 0 and
// adding partitions is useless — the only headroom left is running
// non-conflicting TEs of the hot partition concurrently. Two workloads
// bound the answer: "disjoint" spreads writes over skewTables tables
// (adjacent TEs rarely conflict, waves form), "conflicting" funnels
// every write into one table (every adjacent pair conflicts, the
// dispatcher must degrade to serial order — the interesting number is
// how little that degradation costs).

// skewDispatch is the simulated PE→EE crossing cost; like the scale
// experiment it is heavy enough that each TE body is dominated by a
// boundary wait workers can overlap, which keeps the experiment
// meaningful on single-CPU CI hosts.
const skewDispatch = 250 * time.Microsecond

// skewPartitions is the partition count; the zipf draw concentrates
// calls on partition 0 as s grows.
const skewPartitions = 4

// skewTables is how many disjoint tables the non-conflicting workload
// stripes writes over (round-robin), bounding wave width.
const skewTables = 16

// skewWorkers is the worker-pool size of the parallel configurations.
const skewWorkers = 4

// Skew sweeps the zipf exponent and the per-partition worker count and
// reports throughput, p50/p99 call latency, and the parallel speedup
// over the serial (workers=0) run of the identical call sequence.
// zipf_s=8 is effectively fully skewed (≈99.6% of calls on one
// partition).
func Skew(opts Options) (*Table, error) {
	table := newTable("workload", "zipf_s", "workers",
		"calls_per_sec", "p50_ms", "p99_ms", "parallel_tasks", "speedup_vs_serial")
	sVals := []float64{1.1, 1.5, 3.0, 8.0}
	workers := []int{0, 2, skewWorkers}
	if opts.Quick {
		sVals = []float64{1.2, 8.0}
		workers = []int{0, skewWorkers}
	}
	n := opts.n(300, 1500)
	for _, workload := range []string{"disjoint", "conflicting"} {
		conflicting := workload == "conflicting"
		for _, s := range sVals {
			routes := skewRoutes(s, n)
			base := 0.0
			for _, w := range workers {
				tput, p50, p99, par, err := skewProbe(conflicting, w, routes)
				if err != nil {
					return nil, fmt.Errorf("skew %s s=%.1f w=%d: %w", workload, s, w, err)
				}
				if w == 0 {
					base = tput
				}
				speedup := 0.0
				if base > 0 {
					speedup = tput / base
				}
				table.addRow(workload, s, w, tput,
					float64(p50)/1e6, float64(p99)/1e6, par, speedup)
			}
		}
	}
	return table, nil
}

// skewRoutes precomputes the zipfian partition of every call, so each
// worker configuration replays the identical sequence.
func skewRoutes(s float64, n int) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(17)), s, 1, skewPartitions-1)
	routes := make([]int, n)
	for i := range routes {
		routes[i] = int(z.Uint64())
	}
	return routes
}

// skewEngine builds the engine: params[0] of every call is its
// precomputed partition. The disjoint workload registers one declared
// single-table writer per stripe; the conflicting workload registers a
// single declared writer so every adjacent pair of calls conflicts.
func skewEngine(conflicting bool, workers int) (*pe.Engine, error) {
	eng, err := pe.NewEngine(pe.Options{
		Partitions: skewPartitions,
		Workers:    workers,
		EEDispatch: skewDispatch,
		RouteCall: func(_ string, params types.Row) int {
			return int(params[0].Int())
		},
	})
	if err != nil {
		return nil, err
	}
	register := func(sp string, tbl string) error {
		if err := eng.ExecDDL(fmt.Sprintf("CREATE TABLE %s (k BIGINT, v BIGINT)", tbl)); err != nil {
			return err
		}
		stmt := fmt.Sprintf("INSERT INTO %s VALUES (?, ?)", tbl)
		return eng.RegisterProc(&pe.StoredProc{
			Name:   sp,
			Access: &pe.ProcAccess{Writes: []string{tbl}},
			Func: func(ctx *pe.ProcCtx) error {
				_, err := ctx.Query(stmt, ctx.Params()[1], ctx.Params()[0])
				return err
			},
		})
	}
	if conflicting {
		if err := register("SkewShared", "skew_shared"); err != nil {
			eng.Close()
			return nil, err
		}
		return eng, nil
	}
	for i := 0; i < skewTables; i++ {
		if err := register(fmt.Sprintf("Skew%d", i), fmt.Sprintf("skew_t%d", i)); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return eng, nil
}

// skewProbe floods the engine with the precomputed call sequence from
// one submitting goroutine (admission order is fixed), records each
// call's submit-to-reply latency, and reports calls/sec plus latency
// percentiles and how many tasks ran on the parallel path.
func skewProbe(conflicting bool, workers int, routes []int) (
	tput float64, p50, p99 time.Duration, parallelTasks uint64, err error) {
	eng, err := skewEngine(conflicting, workers)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer eng.Close()
	var lat latencyRecorder
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	tput, err = measureThroughput(len(routes),
		func(i int) error {
			sp := "SkewShared"
			if !conflicting {
				sp = fmt.Sprintf("Skew%d", i%skewTables)
			}
			params := types.Row{types.NewInt(int64(routes[i])), types.NewInt(int64(i))}
			start := time.Now()
			ch := eng.CallAsync(sp, params)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if r := <-ch; r.Err != nil {
					select {
					case errc <- r.Err:
					default:
					}
					return
				}
				lat.Record(time.Since(start))
			}()
			return nil
		},
		func() error {
			wg.Wait()
			select {
			case err := <-errc:
				return err
			default:
			}
			return eng.Drain()
		},
	)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return tput, lat.Percentile(50), lat.Percentile(99), eng.Stats().TasksParallel, nil
}
