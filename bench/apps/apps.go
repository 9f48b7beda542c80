// Package apps defines the benchmark's served applications. They are
// the benchmark's own server.App values (not the server's built-ins)
// so that benchd can set any pe.Options and wrap every stored
// procedure body in a span without touching a file outside bench/.
// The same Setup functions build the engine embedded in the harness
// for the pe.* layer metrics, so the served and in-process runs
// execute identical procedures.
package apps

import (
	"fmt"

	"sstore/internal/leaderboard"
	"sstore/internal/pe"
	"sstore/internal/server"
	"sstore/internal/workflow"
)

// Stream and procedure names the load generator addresses.
const (
	SensorStream  = "raw_readings"
	SensorRead    = "Report"
	VoterStream   = leaderboard.StreamVotesIn
	VoterReadSQL  = "SELECT contestant_id, recent FROM leaderboard_trend"
	HistoryStream = "arch_in"
	HistoryRead   = "Lookup"
	HistoryCount  = "HistoryCount"
)

// Names lists the applications in a fixed order.
var Names = []string{"sensor", "voter", "history"}

// New returns the named application with every stored-procedure body
// wrapped by rec (nil records nothing and adds no wrapper).
func New(name string, rec *Recorder) (*server.App, error) {
	switch name {
	case "sensor":
		return sensor(rec), nil
	case "voter":
		return voter(rec), nil
	case "history":
		return history(rec), nil
	}
	return nil, fmt.Errorf("apps: unknown app %q (have %v)", name, Names)
}

// deploy runs the DDL, registers the procedures (wrapped) and deploys
// the workflow: the three steps every app's Setup shares.
func deploy(eng *pe.Engine, rec *Recorder, ddl []string, procs []*pe.StoredProc, wf *workflow.Workflow) error {
	for _, d := range ddl {
		if err := eng.ExecDDL(d); err != nil {
			return err
		}
	}
	for i, sp := range procs {
		if err := eng.RegisterProc(rec.wrap(sp, i)); err != nil {
			return err
		}
	}
	return eng.DeployWorkflow(wf)
}

// sensor is the quickstart pipeline: raw_readings → Clean (range
// filter) → clean_readings → Aggregate (per-sensor running totals),
// with Report(sensor) as the OLTP read. Two TEs and six short
// statements per one-row batch, so the per-batch cost is mostly the
// front door and PE scheduling.
func sensor(rec *Recorder) *server.App {
	return &server.App{
		Name:     "sensor",
		Describe: "Clean → PE trigger → Aggregate over 1000 sensors; Report(sensor) reads",
		Setup: func(eng *pe.Engine) error {
			wf, err := workflow.New("sensor", []workflow.Node{
				{SP: "Clean", Input: SensorStream, Outputs: []string{"clean_readings"}},
				{SP: "Aggregate", Input: "clean_readings"},
			})
			if err != nil {
				return err
			}
			return deploy(eng, rec, []string{
				"CREATE STREAM raw_readings (sensor BIGINT, value BIGINT)",
				"CREATE STREAM clean_readings (sensor BIGINT, value BIGINT)",
				"CREATE TABLE averages (sensor BIGINT PRIMARY KEY, n BIGINT, total BIGINT)",
			}, []*pe.StoredProc{
				{Name: "Clean", Func: func(ctx *pe.ProcCtx) error {
					_, err := ctx.Query(SensorCleanSQL)
					return err
				}},
				{Name: "Aggregate", Func: func(ctx *pe.ProcCtx) error {
					rows, err := ctx.Query("SELECT sensor, value FROM clean_readings")
					if err != nil {
						return err
					}
					for _, r := range rows.Rows {
						existing, err := ctx.Query(SensorPointSelectSQL, r[0])
						if err != nil {
							return err
						}
						if len(existing.Rows) == 0 {
							_, err = ctx.Query("INSERT INTO averages VALUES (?, 1, ?)", r[0], r[1])
						} else {
							_, err = ctx.Query(SensorPointUpdateSQL, r[1], r[0])
						}
						if err != nil {
							return err
						}
					}
					return nil
				}},
				{Name: SensorRead, Func: func(ctx *pe.ProcCtx) error {
					res, err := ctx.Query(
						"SELECT sensor, total / n AS avg, n FROM averages WHERE sensor = ?", ctx.Params()[0])
					if err != nil {
						return err
					}
					ctx.SetResult(res)
					return nil
				}},
			}, wf)
		},
	}
}

// The sensor app's statements, shared with the ee.* layer replay so
// the replay times exactly what the served procedures execute.
const (
	SensorCleanSQL       = "INSERT INTO clean_readings SELECT sensor, value FROM raw_readings WHERE value >= 0 AND value <= 1000"
	SensorPointSelectSQL = "SELECT n FROM averages WHERE sensor = ?"
	SensorPointUpdateSQL = "UPDATE averages SET n = n + 1, total = total + ? WHERE sensor = ?"
)

// VoterConfig is the leaderboard configuration every voter run uses:
// the package defaults (6 contestants, 100-vote trending window, slide
// 1, DeleteLowest every 1000 valid votes, top 3).
var VoterConfig = leaderboard.Config{}

// voter is the paper's Voter-with-leaderboard from
// internal/leaderboard: Validate → Maintain (sliding window plus three
// leaderboards) → DeleteLowest. The read op is a snapshot Query of
// leaderboard_trend, served off the partition loop.
func voter(rec *Recorder) *server.App {
	return &server.App{
		Name:     "voter",
		Describe: "Validate → Maintain (100-vote window, leaderboards) → DeleteLowest every 1000",
		Setup: func(eng *pe.Engine) error {
			// Seed rows are set-up state re-issued at every start, like
			// DDL: ad-hoc writes are rejected while command logging is on.
			if err := leaderboard.SetupSchema(eng, VoterConfig, eng.ExecDDL); err != nil {
				return err
			}
			wf, err := leaderboard.Workflow()
			if err != nil {
				return err
			}
			return deploy(eng, rec, nil, leaderboard.Procs(VoterConfig), wf)
		},
	}
}

// history appends one row per batch to a disk-backed archive table and
// serves Lookup(id) as an index probe on the partition loop; with the
// table several times the buffer-pool budget, uniform lookups mostly
// miss the pool while appends stay on the tail page.
func history(rec *Recorder) *server.App {
	return &server.App{
		Name:     "history",
		Describe: "append-only CREATE ARCHIVE TABLE behind the buffer pool; Lookup(id) index probes",
		Setup: func(eng *pe.Engine) error {
			wf, err := workflow.New("history", []workflow.Node{
				{SP: "Archive", Input: HistoryStream},
			})
			if err != nil {
				return err
			}
			return deploy(eng, rec, []string{
				"CREATE STREAM arch_in (id BIGINT, payload VARCHAR)",
				"CREATE ARCHIVE TABLE arch_history (id BIGINT PRIMARY KEY, payload VARCHAR)",
			}, []*pe.StoredProc{
				{Name: "Archive", Func: func(ctx *pe.ProcCtx) error {
					_, err := ctx.Query("INSERT INTO arch_history SELECT id, payload FROM arch_in")
					return err
				}},
				{Name: HistoryRead, Func: func(ctx *pe.ProcCtx) error {
					res, err := ctx.Query("SELECT id, payload FROM arch_history WHERE id = ?", ctx.Params()[0])
					if err != nil {
						return err
					}
					ctx.SetResult(res)
					return nil
				}},
				{Name: HistoryCount, Func: func(ctx *pe.ProcCtx) error {
					res, err := ctx.Query("SELECT COUNT(*) FROM arch_history")
					if err != nil {
						return err
					}
					ctx.SetResult(res)
					return nil
				}},
			}, wf)
		},
	}
}
