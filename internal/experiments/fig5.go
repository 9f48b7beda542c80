package experiments

import (
	"fmt"
	"time"

	"sstore/internal/netsim"
	"sstore/internal/pe"
	"sstore/internal/types"
)

// Fig5 reproduces Figure 5: execution-engine triggers. One stored
// procedure pushes a tuple through N query stages over streams. In
// S-Store the stages are EE triggers — everything after the first
// insert happens inside the EE, and stream GC is automatic. In H-Store
// the procedure submits each stage (an INSERT plus the DELETE that GC
// would have done) as separate execution batches from the PE to the
// EE, paying the boundary crossing every time (§4.1).
func Fig5(opts Options) (*Table, error) {
	stages := opts.pick([]int{1, 4, 10}, []int{1, 2, 4, 6, 8, 10})
	window := time.Duration(opts.n(150, 600)) * time.Millisecond
	table := newTable("ee_triggers", "sstore_tps", "hstore_tps", "speedup")

	for _, n := range stages {
		ss, err := fig5Rate(n, true, window)
		if err != nil {
			return nil, err
		}
		hs, err := fig5Rate(n, false, window)
		if err != nil {
			return nil, err
		}
		table.addRow(n, ss, hs, ss/hs)
	}
	return table, nil
}

// fig5Rate measures one configuration's closed-loop TPS.
func fig5Rate(stages int, eeTriggers bool, window time.Duration) (float64, error) {
	eng, err := pe.NewEngine(pe.Options{EEDispatch: netsim.DefaultEEDispatch})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	if err := eng.ExecDDL("CREATE TABLE f5_sink (v BIGINT)"); err != nil {
		return 0, err
	}
	for i := 1; i <= stages+1; i++ {
		if err := eng.ExecDDL(fmt.Sprintf("CREATE STREAM f5_s%d (v BIGINT)", i)); err != nil {
			return 0, err
		}
	}
	if eeTriggers {
		// Stage i: trigger on f5_s(i) inserting into f5_s(i+1); the
		// last stage lands in the sink table. GC is automatic.
		for i := 1; i <= stages; i++ {
			target := fmt.Sprintf("f5_s%d", i+1)
			if i == stages {
				target = "f5_sink"
			}
			stmt := fmt.Sprintf("INSERT INTO %s SELECT v FROM f5_s%d", target, i)
			if err := eng.AddEETrigger(fmt.Sprintf("f5_s%d", i), stmt); err != nil {
				return 0, err
			}
		}
		err = eng.RegisterProc(&pe.StoredProc{Name: "F5", Func: func(ctx *pe.ProcCtx) error {
			_, err := ctx.Query("INSERT INTO f5_s1 VALUES (?)", ctx.Params()[0])
			return err
		}})
	} else {
		// H-Store: one PE→EE batch per statement — an insert and a
		// delete per stage (§4.1: "the deletion statements are not
		// needed in S-Store").
		var stmts []string
		for i := 1; i <= stages; i++ {
			target := fmt.Sprintf("f5_s%d", i+1)
			if i == stages {
				target = "f5_sink"
			}
			stmts = append(stmts,
				fmt.Sprintf("INSERT INTO %s SELECT v FROM f5_s%d", target, i),
				fmt.Sprintf("DELETE FROM f5_s%d", i),
			)
		}
		err = eng.RegisterProc(&pe.StoredProc{Name: "F5", Func: func(ctx *pe.ProcCtx) error {
			if _, err := ctx.Query("INSERT INTO f5_s1 VALUES (?)", ctx.Params()[0]); err != nil {
				return err
			}
			for _, s := range stmts {
				if _, err := ctx.Query(s); err != nil {
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
		_, err := eng.Call("F5", types.Row{types.NewInt(v)})
		return err
	})
}
