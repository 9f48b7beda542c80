package experiments

import (
	"fmt"
	"time"

	"sstore/internal/netsim"
	"sstore/internal/pe"
	"sstore/internal/types"
)

// Fig7 reproduces Figure 7: native windows. One stored procedure
// inserts tuples into a tuple-based sliding window. S-Store's native
// window keeps the slide bookkeeping in table metadata; the H-Store
// implementation maintains an ordering column, a staging flag, and a
// separate metadata table, sliding with a mix of SQL and host-language
// logic (§4.3). Throughput is swept over window size; slide is a fixed
// tenth of the size (the paper notes size dominates slide).
func Fig7(opts Options) (*Table, error) {
	sizes := opts.pick([]int{10, 100}, []int{10, 50, 100, 500, 1000})
	window := time.Duration(opts.n(150, 600)) * time.Millisecond
	table := newTable("window_size", "sstore_tps", "hstore_tps", "speedup")

	for _, size := range sizes {
		slide := size / 10
		if slide < 1 {
			slide = 1
		}
		ss, err := fig7Native(size, slide, window)
		if err != nil {
			return nil, err
		}
		hs, err := fig7Manual(size, slide, window)
		if err != nil {
			return nil, err
		}
		table.addRow(size, ss, hs, ss/hs)
	}
	return table, nil
}

func fig7Native(size, slide int, window time.Duration) (float64, error) {
	eng, err := pe.NewEngine(pe.Options{EEDispatch: netsim.DefaultEEDispatch})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	ddl := fmt.Sprintf("CREATE WINDOW f7_w (v BIGINT) SIZE %d SLIDE %d", size, slide)
	if err := eng.ExecDDLOwned("F7", ddl); err != nil {
		return 0, err
	}
	err = eng.RegisterProc(&pe.StoredProc{Name: "F7", Func: func(ctx *pe.ProcCtx) error {
		_, err := ctx.Query("INSERT INTO f7_w VALUES (?)", ctx.Params()[0])
		return err
	}})
	if err != nil {
		return 0, err
	}
	v := int64(0)
	return measureRate(window, func() error {
		v++
		_, err := eng.Call("F7", types.Row{types.NewInt(v)})
		return err
	})
}

func fig7Manual(size, slide int, window time.Duration) (float64, error) {
	eng, err := pe.NewEngine(pe.Options{EEDispatch: netsim.DefaultEEDispatch})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	for _, ddl := range []string{
		"CREATE TABLE f7_w (seq BIGINT, v BIGINT, staged BOOLEAN)",
		"CREATE INDEX f7_w_seq ON f7_w (seq)",
		"CREATE TABLE f7_meta (next_seq BIGINT, staged_n BIGINT, active_n BIGINT)",
	} {
		if err := eng.ExecDDL(ddl); err != nil {
			return 0, err
		}
	}
	if _, err := eng.AdHoc(0, "INSERT INTO f7_meta VALUES (1, 0, 0)"); err != nil {
		return 0, err
	}
	sz, sl := int64(size), int64(slide)
	err = eng.RegisterProc(&pe.StoredProc{Name: "F7", Func: func(ctx *pe.ProcCtx) error {
		meta, err := ctx.Query("SELECT next_seq, staged_n, active_n FROM f7_meta")
		if err != nil {
			return err
		}
		seq, stagedN, activeN := meta.Rows[0][0].Int(), meta.Rows[0][1].Int(), meta.Rows[0][2].Int()
		if _, err := ctx.Query("INSERT INTO f7_w VALUES (?, ?, true)", types.NewInt(seq), ctx.Params()[0]); err != nil {
			return err
		}
		seq++
		stagedN++
		flip := func(n int64, from, to string) error {
			rows, err := ctx.Query("SELECT seq FROM f7_w WHERE staged = "+from+" ORDER BY seq LIMIT ?", types.NewInt(n))
			if err != nil {
				return err
			}
			for _, r := range rows.Rows {
				if to == "expired" {
					if _, err := ctx.Query("DELETE FROM f7_w WHERE seq = ?", r[0]); err != nil {
						return err
					}
				} else if _, err := ctx.Query("UPDATE f7_w SET staged = false WHERE seq = ?", r[0]); err != nil {
					return err
				}
			}
			return nil
		}
		if activeN == 0 && stagedN >= sz {
			if err := flip(sz, "true", "active"); err != nil {
				return err
			}
			stagedN -= sz
			activeN = sz
		}
		for activeN > 0 && stagedN >= sl {
			if err := flip(sl, "false", "expired"); err != nil {
				return err
			}
			if err := flip(sl, "true", "active"); err != nil {
				return err
			}
			stagedN -= sl
		}
		_, err = ctx.Query("UPDATE f7_meta SET next_seq = ?, staged_n = ?, active_n = ?",
			types.NewInt(seq), types.NewInt(stagedN), types.NewInt(activeN))
		return err
	}})
	if err != nil {
		return 0, err
	}
	v := int64(0)
	return measureRate(window, func() error {
		v++
		_, err := eng.Call("F7", types.Row{types.NewInt(v)})
		return err
	})
}
