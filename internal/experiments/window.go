package experiments

import (
	"fmt"
	"time"

	"sstore/internal/pe"
	"sstore/internal/types"
)

// Window measures the incremental window engine across window sizes
// with a fixed slide of 1 — the worst case for scan-based upkeep,
// because every insert slides the window. Two claims are on trial
// (ISSUE 4, extending the paper's §4.3 native-window result):
//
//   - insert_tps: per-insert window upkeep is O(slide), not O(size) —
//     the column should be flat as the window grows;
//   - trig_maintained_tps: a trigger TE reading SUM/COUNT over the
//     window hits the maintained accumulators, so it is O(1) in the
//     window size and should also stay flat, while trig_scan_tps (the
//     same trigger without maintained aggregates, recomputing by scan)
//     degrades linearly — it is the H-Store-style baseline.
//
// No simulated network is applied: this experiment isolates the
// storage and execution layers the tentpole rebuilt.
func Window(opts Options) (*Table, error) {
	sizes := opts.pick([]int{64, 512}, []int{100, 1000, 10000})
	window := time.Duration(opts.n(120, 400)) * time.Millisecond
	table := newTable("window_size", "insert_tps", "trig_maintained_tps", "trig_scan_tps", "maintained_speedup")
	for _, size := range sizes {
		ins, err := windowProbe(size, window, false, false)
		if err != nil {
			return nil, fmt.Errorf("window insert size=%d: %w", size, err)
		}
		maint, err := windowProbe(size, window, true, true)
		if err != nil {
			return nil, fmt.Errorf("window maintained size=%d: %w", size, err)
		}
		scan, err := windowProbe(size, window, false, true)
		if err != nil {
			return nil, fmt.Errorf("window scan size=%d: %w", size, err)
		}
		table.addRow(size, ins, maint, scan, maint/scan)
	}
	return table, nil
}

// windowEngine builds an engine with one native window of the given
// size (slide 1) and an insert SP; the window is pre-filled so every
// measured insert runs the steady-state expire+activate path.
func windowEngine(size int, maintained bool, trigger bool) (*pe.Engine, error) {
	eng, err := pe.NewEngine(pe.Options{})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*pe.Engine, error) {
		eng.Close()
		return nil, err
	}
	ddl := fmt.Sprintf("CREATE WINDOW bw (v BIGINT) SIZE %d SLIDE 1", size)
	if err := eng.ExecDDL(ddl); err != nil {
		return fail(err)
	}
	err = eng.RegisterProc(&pe.StoredProc{Name: "WFeed", Func: func(ctx *pe.ProcCtx) error {
		_, err := ctx.Query("INSERT INTO bw VALUES (?)", ctx.Params()[0])
		return err
	}})
	if err != nil {
		return fail(err)
	}
	if trigger {
		if err := eng.ExecDDL("CREATE TABLE bw_out (total BIGINT, n BIGINT)"); err != nil {
			return fail(err)
		}
		// The trigger TE recomputes the window statistic on every
		// slide; keeping bw_out at one row bounds its own cost.
		err := eng.AddEETrigger("bw",
			"DELETE FROM bw_out",
			"INSERT INTO bw_out SELECT SUM(v), COUNT(*) FROM bw")
		if err != nil {
			return fail(err)
		}
	}
	if maintained {
		for _, fn := range []string{"sum", "count"} {
			if err := eng.MaintainWindowAggregate("bw", fn, "v"); err != nil {
				return fail(err)
			}
		}
		if err := eng.MaintainWindowAggregate("bw", "count", "*"); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < size; i++ {
		if _, err := eng.Call("WFeed", types.Row{types.NewInt(int64(i))}); err != nil {
			return fail(err)
		}
	}
	return eng, nil
}

// windowProbe measures steady-state insert throughput against the
// configured engine variant (bare inserts, or a slide trigger reading
// the aggregate from maintained accumulators vs a scan).
func windowProbe(size int, window time.Duration, maintained, trigger bool) (float64, error) {
	eng, err := windowEngine(size, maintained, trigger)
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	v := int64(size)
	return measureRate(window, func() error {
		v++
		_, err := eng.Call("WFeed", types.Row{types.NewInt(v)})
		return err
	})
}
