package leaderboard

import (
	"fmt"

	"sstore/internal/ee"
	"sstore/internal/pe"
	"sstore/internal/types"
)

// The H-Store-style deployment (§4.5): the same application without
// S-Store's streaming features. Streams become plain tables the client
// shepherds data through, the trending window becomes a manually
// managed table with a staging column and a metadata table (the
// paper's Figure 7 description), and the three steps are chained by
// the client — it must wait for each transaction's result before
// submitting the next, because only the client knows what to run next.

// H-Store-mode stored procedure names.
const (
	HSPValidate = "HValidate"
	HSPMaintain = "HMaintain"
	HSPDelete   = "HDeleteLowest"
)

var hstoreDDL = []string{
	// Manual window: ordering column + staging flag, plus the
	// bookkeeping the engine would otherwise keep in table metadata.
	"CREATE TABLE trend_win (seq BIGINT, contestant_id BIGINT, staged BOOLEAN)",
	"CREATE INDEX trend_win_seq ON trend_win (seq)",
	"CREATE TABLE trend_meta (next_seq BIGINT, staged_n BIGINT, active_n BIGINT)",
}

// SetupHStoreSchema creates the shared tables plus the manual-window
// scaffolding (no streams, no window table, no triggers).
func SetupHStoreSchema(eng Engine, cfg Config, seed func(stmt string) error) error {
	cfg = cfg.withDefaults()
	for _, d := range tableDDL(cfg) {
		if err := eng.ExecDDL(d); err != nil {
			return err
		}
	}
	for _, d := range hstoreDDL {
		if err := eng.ExecDDL(d); err != nil {
			return err
		}
	}
	for i := 1; i <= cfg.Contestants; i++ {
		stmt := fmt.Sprintf("INSERT INTO contestants VALUES (%d, 'contestant%d', true, 0)", i, i)
		if err := seed(stmt); err != nil {
			return err
		}
	}
	if err := seed("INSERT INTO vote_counter VALUES (0)"); err != nil {
		return err
	}
	return seed("INSERT INTO trend_meta VALUES (1, 0, 0)")
}

// HStoreProcs returns the client-chained procedures. HValidate returns
// a one-row result (1 valid / 0 invalid); HMaintain returns the
// running counter so the client can decide whether to invoke
// HDeleteLowest — the decision the paper notes forces synchronous
// client round trips.
func HStoreProcs(cfg Config) []*pe.StoredProc {
	cfg = cfg.withDefaults()
	return []*pe.StoredProc{
		{Name: HSPValidate, Func: hValidate(), Stmts: hValidateStmts},
		{Name: HSPMaintain, Func: hMaintain(cfg), Stmts: hMaintainStmts},
		// Identical logic, no stream read.
		{Name: HSPDelete, Func: deleteProc(cfg, false), Stmts: deleteStmts(false)},
	}
}

// HValidate's declared statements.
const (
	hvActive = iota
	hvDup
	hvRecord
)

var hValidateStmts = []string{
	hvActive: "SELECT active FROM contestants WHERE id = ?",
	hvDup:    "SELECT phone FROM votes WHERE phone = ?",
	hvRecord: "INSERT INTO votes VALUES (?, ?, ?)",
}

func hValidate() pe.ProcFunc {
	return func(ctx *pe.ProcCtx) error {
		phone, cand := ctx.Params()[0], ctx.Params()[1]
		ts := ctx.Params()[2]
		valid := int64(0)
		ok, err := ctx.Exec(hvActive, cand)
		if err != nil {
			return err
		}
		if len(ok.Rows) > 0 && ok.Rows[0][0].Bool() {
			dup, err := ctx.Exec(hvDup, phone)
			if err != nil {
				return err
			}
			if len(dup.Rows) == 0 {
				if _, err := ctx.Exec(hvRecord, phone, cand, ts); err != nil {
					return err
				}
				valid = 1
			}
		}
		ctx.SetResult(&ee.Result{Columns: []string{"valid"}, Rows: []types.Row{{types.NewInt(valid)}}})
		return nil
	}
}

// hTrendFill fills the trending board from the hand-rolled window's
// active rows, re-grouping them on every refresh.
const hTrendFill = "INSERT INTO leaderboard_trend SELECT 0, contestant_id, COUNT(*) FROM trend_win WHERE staged = false GROUP BY contestant_id ORDER BY COUNT(*) DESC, contestant_id LIMIT ?"

// HMaintain's declared statements; the board refresh follows hmBoards.
const (
	hmMeta = iota
	hmStage
	hmSaveMeta
	hmTotal
	hmCount
	hmReadCount
	hmOldestStaged
	hmActivate
	hmOldestActive
	hmExpire
	hmBoards
)

var hMaintainStmts = append([]string{
	hmMeta:         "SELECT next_seq, staged_n, active_n FROM trend_meta",
	hmStage:        "INSERT INTO trend_win VALUES (?, ?, true)",
	hmSaveMeta:     "UPDATE trend_meta SET next_seq = ?, staged_n = ?, active_n = ?",
	hmTotal:        "UPDATE contestants SET total = total + 1 WHERE id = ?",
	hmCount:        "UPDATE vote_counter SET n = n + 1",
	hmReadCount:    "SELECT n FROM vote_counter",
	hmOldestStaged: "SELECT seq FROM trend_win WHERE staged = true ORDER BY seq LIMIT ?",
	hmActivate:     "UPDATE trend_win SET staged = false WHERE seq = ?",
	hmOldestActive: "SELECT seq FROM trend_win WHERE staged = false ORDER BY seq LIMIT ?",
	hmExpire:       "DELETE FROM trend_win WHERE seq = ?",
}, boardStmts(hTrendFill)...)

// hMaintain is the manual-window version of SP2: a "two-staged stored
// procedure to manage the window state using a combination of SQL
// queries and Java logic" (§4.3) — here, SQL plus Go.
func hMaintain(cfg Config) pe.ProcFunc {
	topK := types.NewInt(int64(cfg.TopK))
	size, slide := cfg.TrendingWindow, cfg.TrendingSlide
	return func(ctx *pe.ProcCtx) error {
		cand := ctx.Params()[1]
		// Stage the incoming tuple.
		meta, err := ctx.Exec(hmMeta)
		if err != nil {
			return err
		}
		seq, stagedN, activeN := meta.Rows[0][0].Int(), meta.Rows[0][1].Int(), meta.Rows[0][2].Int()
		if _, err := ctx.Exec(hmStage, types.NewInt(seq), cand); err != nil {
			return err
		}
		seq++
		stagedN++
		// Slide checks, mirroring native-window semantics.
		if activeN == 0 && stagedN >= size {
			if err := moveOldest(ctx, hmOldestStaged, hmActivate, size); err != nil {
				return err
			}
			stagedN -= size
			activeN = size
		}
		for activeN > 0 && stagedN >= slide {
			if err := moveOldest(ctx, hmOldestActive, hmExpire, slide); err != nil {
				return err
			}
			if err := moveOldest(ctx, hmOldestStaged, hmActivate, slide); err != nil {
				return err
			}
			stagedN -= slide
		}
		if _, err := ctx.Exec(hmSaveMeta, types.NewInt(seq), types.NewInt(stagedN), types.NewInt(activeN)); err != nil {
			return err
		}
		// Totals, counter, leaderboards.
		if _, err := ctx.Exec(hmTotal, cand); err != nil {
			return err
		}
		if _, err := ctx.Exec(hmCount); err != nil {
			return err
		}
		if err := refreshLeaderboards(ctx, hmBoards, topK); err != nil {
			return err
		}
		cnt, err := ctx.Exec(hmReadCount)
		if err != nil {
			return err
		}
		ctx.SetResult(cnt)
		return nil
	}
}

// moveOldest selects the n oldest window rows with statement pick and
// runs statement move on each one's seq: activating staged rows, or
// expiring active ones.
func moveOldest(ctx *pe.ProcCtx, pick, move int, n int64) error {
	rows, err := ctx.Exec(pick, types.NewInt(n))
	if err != nil {
		return err
	}
	for _, r := range rows.Rows {
		if _, err := ctx.Exec(move, r[0]); err != nil {
			return err
		}
	}
	return nil
}

// HStoreClient drives one vote through the client-chained pipeline,
// paying a full round trip per step: validate, then (if valid)
// maintain, then (if the counter crossed a boundary) delete. Returns
// whether the vote was valid.
func HStoreClient(call func(sp string, params ...types.Value) (*pe.Result, error), cfg Config, vote types.Row) (bool, error) {
	cfg = cfg.withDefaults()
	res, err := call(HSPValidate, vote...)
	if err != nil {
		return false, err
	}
	if len(res.Rows) == 0 || res.Rows[0][0].Int() == 0 {
		return false, nil
	}
	res, err = call(HSPMaintain, vote...)
	if err != nil {
		return true, err
	}
	n := res.Rows[0][0].Int()
	if n%cfg.DeleteEvery == 0 {
		if _, err := call(HSPDelete); err != nil {
			return true, err
		}
	}
	return true, nil
}
