package leaderboard

import (
	"fmt"

	"sstore/internal/pe"
	"sstore/internal/types"
)

// Validate's declared statements.
const (
	vIn = iota
	vActive
	vDup
	vRecord
	vEmit
)

var validateStmts = []string{
	vIn:     "SELECT phone, contestant_id, ts FROM " + StreamVotesIn,
	vActive: "SELECT active FROM contestants WHERE id = ?",
	vDup:    "SELECT phone FROM votes WHERE phone = ?",
	vRecord: "INSERT INTO votes VALUES (?, ?, ?)",
	vEmit:   "INSERT INTO " + StreamValidVotes + " VALUES (?, ?, ?)",
}

// validateProc is SP1 (§1.1): check the contestant exists and is
// active and the phone has not voted, then record the vote and emit it
// downstream. An invalid vote commits without emitting (it is consumed
// and dropped, not an abort — aborting would be wrong: the batch was
// processed).
func validateProc(cfg Config) pe.ProcFunc {
	return func(ctx *pe.ProcCtx) error {
		in, err := ctx.Exec(vIn)
		if err != nil {
			return err
		}
		for _, vote := range in.Rows {
			phone, cand, ts := vote[0], vote[1], vote[2]
			ok, err := ctx.Exec(vActive, cand)
			if err != nil {
				return err
			}
			if len(ok.Rows) == 0 || !ok.Rows[0][0].Bool() {
				continue // unknown or removed contestant
			}
			if !cfg.SkipValidation {
				dup, err := ctx.Exec(vDup, phone)
				if err != nil {
					return err
				}
				if len(dup.Rows) > 0 {
					continue // this viewer already voted
				}
			}
			if _, err := ctx.Exec(vRecord, phone, cand, ts); err != nil {
				return err
			}
			if _, err := ctx.Exec(vEmit, phone, cand, ts); err != nil {
				return err
			}
		}
		return nil
	}
}

// boardStmts are the three leaderboards' clear and fill statements in
// refresh order; trendFill fills the trending board from whichever
// window the deployment keeps.
func boardStmts(trendFill string) []string {
	return []string{
		"DELETE FROM leaderboard_top",
		"INSERT INTO leaderboard_top SELECT 0, id, total FROM contestants WHERE active = true ORDER BY total DESC, id LIMIT ?",
		"DELETE FROM leaderboard_bottom",
		"INSERT INTO leaderboard_bottom SELECT 0, id, total FROM contestants WHERE active = true ORDER BY total ASC, id LIMIT ?",
		"DELETE FROM leaderboard_trend",
		trendFill,
	}
}

// trendFill fills the trending board from the native window, whose
// per-contestant counts are maintained (§4.3).
const trendFill = "INSERT INTO leaderboard_trend SELECT 0, contestant_id, COUNT(*) FROM trending GROUP BY contestant_id ORDER BY COUNT(*) DESC, contestant_id LIMIT ?"

// refreshLeaderboards rebuilds the three boards from current state,
// running the boardStmts declared from statement first on.
func refreshLeaderboards(ctx *pe.ProcCtx, first int, topK types.Value) error {
	for i := 0; i < 6; i += 2 {
		if _, err := ctx.Exec(first + i); err != nil {
			return err
		}
		if _, err := ctx.Exec(first+i+1, topK); err != nil {
			return err
		}
	}
	return nil
}

// Maintain's declared statements; the board refresh follows mBoards.
const (
	mIn = iota
	mTrend
	mTotal
	mCount
	mReadCount
	mRemoval
	mBoards
)

var maintainStmts = append([]string{
	mIn:        "SELECT phone, contestant_id, ts FROM " + StreamValidVotes,
	mTrend:     "INSERT INTO trending VALUES (?, ?)",
	mTotal:     "UPDATE contestants SET total = total + 1 WHERE id = ?",
	mCount:     "UPDATE vote_counter SET n = n + ?",
	mReadCount: "SELECT n FROM vote_counter",
	mRemoval:   "INSERT INTO " + StreamRemovals + " VALUES (?)",
}, boardStmts(trendFill)...)

// maintainProc is SP2: slide the trending window, bump the contestant
// total, refresh the three leaderboards, and every DeleteEvery valid
// votes emit a removal trigger downstream.
func maintainProc(cfg Config) pe.ProcFunc {
	topK := types.NewInt(int64(cfg.TopK))
	return func(ctx *pe.ProcCtx) error {
		in, err := ctx.Exec(mIn)
		if err != nil {
			return err
		}
		if len(in.Rows) == 0 {
			return nil
		}
		for _, vote := range in.Rows {
			cand, ts := vote[1], vote[2]
			if _, err := ctx.Exec(mTrend, cand, ts); err != nil {
				return err
			}
			if _, err := ctx.Exec(mTotal, cand); err != nil {
				return err
			}
		}
		if _, err := ctx.Exec(mCount, types.NewInt(int64(len(in.Rows)))); err != nil {
			return err
		}
		if err := refreshLeaderboards(ctx, mBoards, topK); err != nil {
			return err
		}
		// Removal trigger: fires when the running count crosses a
		// DeleteEvery boundary.
		cnt, err := ctx.Exec(mReadCount)
		if err != nil {
			return err
		}
		n := cnt.Rows[0][0].Int()
		prev := n - int64(len(in.Rows))
		if n/cfg.DeleteEvery > prev/cfg.DeleteEvery {
			if _, err := ctx.Exec(mRemoval, types.NewInt(n)); err != nil {
				return err
			}
		}
		return nil
	}
}

// DeleteLowest's declared statements; the board refresh follows
// dBoards, and the S-Store deployment appends dConsume.
const (
	dActive = iota
	dLowest
	dDeactivate
	dDropVotes
	dBoards
	dConsume = dBoards + 6
)

// deleteStmts declares DeleteLowest's statements for a deployment:
// with readStream the S-Store one (native trending window, removal
// stream), else the H-Store one (hand-rolled window, no streams).
func deleteStmts(readStream bool) []string {
	stmts := []string{
		dActive:     "SELECT COUNT(*) FROM contestants WHERE active = true",
		dLowest:     "SELECT id FROM contestants WHERE active = true ORDER BY total ASC, id LIMIT 1",
		dDeactivate: "UPDATE contestants SET active = false WHERE id = ?",
		dDropVotes:  "DELETE FROM votes WHERE contestant_id = ?",
	}
	if !readStream {
		return append(stmts, boardStmts(hTrendFill)...)
	}
	return append(append(stmts, boardStmts(trendFill)...), "SELECT n FROM "+StreamRemovals)
}

// deleteProc is SP3: remove the active contestant with the fewest
// votes, delete their recorded votes (returning those votes to the
// voters, who may vote again), and refresh the boards. readStream
// selects whether the removal trigger arrives via the removals stream
// (S-Store) or a direct client call (H-Store mode); deleteStmts(
// readStream) declares the matching statements.
func deleteProc(cfg Config, readStream bool) pe.ProcFunc {
	topK := types.NewInt(int64(cfg.TopK))
	return func(ctx *pe.ProcCtx) error {
		if readStream {
			// Consume the trigger tuples (content is informational).
			if _, err := ctx.Exec(dConsume); err != nil {
				return err
			}
		}
		active, err := ctx.Exec(dActive)
		if err != nil {
			return err
		}
		if active.Rows[0][0].Int() <= 1 {
			return nil // a single winner remains
		}
		lowest, err := ctx.Exec(dLowest)
		if err != nil {
			return err
		}
		if len(lowest.Rows) == 0 {
			return nil
		}
		loser := lowest.Rows[0][0]
		if _, err := ctx.Exec(dDeactivate, loser); err != nil {
			return err
		}
		if _, err := ctx.Exec(dDropVotes, loser); err != nil {
			return err
		}
		return refreshLeaderboards(ctx, dBoards, topK)
	}
}

// QueryRows is the minimal result shape Validate needs.
type QueryRows struct {
	Rows []types.Row
}

// Validate sanity-checks cross-table invariants after a run: totals
// match recorded votes per active contestant, and the counter is
// consistent. Used by integration tests.
func Validate(query func(sql string, params ...types.Value) (*QueryRows, error)) error {
	res, err := query(`SELECT c.id, c.total, COUNT(*) FROM votes v
		JOIN contestants c ON v.contestant_id = c.id
		WHERE c.active = true GROUP BY c.id, c.total`)
	if err != nil {
		return err
	}
	for _, r := range res.Rows {
		if r[1].Int() != r[2].Int() {
			return fmt.Errorf("leaderboard: contestant %d total %d but %d recorded votes", r[0].Int(), r[1].Int(), r[2].Int())
		}
	}
	return nil
}
