package server

import (
	"errors"
	"fmt"
	"sort"

	"sstore/internal/linearroad"
	"sstore/internal/pe"
	"sstore/internal/types"
	"sstore/internal/workflow"
)

// App is a built-in demo application the server binary can deploy:
// schema, stored procedures, and workflow wiring, plus the routing
// functions a multi-partition deployment needs. Stored procedures are
// Go code, so server deployments pick from compiled-in apps rather
// than loading them over the wire.
type App struct {
	// Name selects the app (cmd/sstore-server -app).
	Name string
	// Describe is a one-line summary for -list-apps.
	Describe string
	// PartitionBy/RouteCall are the app's routing functions; wire them
	// into pe.Options before building the engine.
	PartitionBy func(stream string, rows []types.Row) int
	RouteCall   func(sp string, params types.Row) int
	// Setup creates schema, registers procedures, and deploys
	// workflows on a freshly built engine.
	Setup func(eng *pe.Engine) error
}

// byFirstInt routes by the first column's integer value — the key
// every demo app shares across a batch's tuples.
func byFirstInt(_ string, rows []types.Row) int {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return 0
	}
	return int(rows[0][0].Int())
}

// PipelineApp is the sensor pipeline of examples/quickstart as a
// served application: raw_readings → Clean → clean_readings →
// Aggregate folds per-sensor averages into a shared table, and the
// OLTP procedure Report(sensor) reads them back. Batches and Report
// calls route by sensor, so the workflow fans out across partitions
// and a multi-connection client load with one sensor per connection
// never contends on a partition's ledger.
func PipelineApp() *App {
	return &App{
		Name:        "pipeline",
		Describe:    "sensor cleaning/averaging workflow + Report OLTP reads, routed by sensor",
		PartitionBy: byFirstInt,
		RouteCall: func(_ string, params types.Row) int {
			if len(params) == 0 {
				return 0
			}
			return int(params[0].Int())
		},
		Setup: func(eng *pe.Engine) error {
			for _, ddl := range []string{
				"CREATE STREAM raw_readings (sensor BIGINT, value BIGINT)",
				"CREATE STREAM clean_readings (sensor BIGINT, value BIGINT)",
				"CREATE TABLE averages (sensor BIGINT PRIMARY KEY, n BIGINT, total BIGINT)",
			} {
				if err := eng.ExecDDL(ddl); err != nil {
					return err
				}
			}
			err := eng.RegisterProc(&pe.StoredProc{Name: "Clean", Func: func(ctx *pe.ProcCtx) error {
				_, err := ctx.Query(
					"INSERT INTO clean_readings SELECT sensor, value FROM raw_readings WHERE value >= 0 AND value <= 1000")
				return err
			}})
			if err != nil {
				return err
			}
			err = eng.RegisterProc(&pe.StoredProc{Name: "Aggregate", Func: func(ctx *pe.ProcCtx) error {
				rows, err := ctx.Query("SELECT sensor, value FROM clean_readings")
				if err != nil {
					return err
				}
				for _, r := range rows.Rows {
					existing, err := ctx.Query("SELECT n FROM averages WHERE sensor = ?", r[0])
					if err != nil {
						return err
					}
					if len(existing.Rows) == 0 {
						_, err = ctx.Query("INSERT INTO averages VALUES (?, 1, ?)", r[0], r[1])
					} else {
						_, err = ctx.Query(
							"UPDATE averages SET n = n + 1, total = total + ? WHERE sensor = ?", r[1], r[0])
					}
					if err != nil {
						return err
					}
				}
				return nil
			}})
			if err != nil {
				return err
			}
			err = eng.RegisterProc(&pe.StoredProc{Name: "Report", Func: func(ctx *pe.ProcCtx) error {
				res, err := ctx.Query(
					"SELECT sensor, total / n AS avg, n FROM averages WHERE sensor = ?", ctx.Params()[0])
				if err != nil {
					return err
				}
				ctx.SetResult(res)
				return nil
			}})
			if err != nil {
				return err
			}
			wf, err := workflow.New("pipeline", []workflow.Node{
				{SP: "Clean", Input: "raw_readings", Outputs: []string{"clean_readings"}},
				{SP: "Aggregate", Input: "clean_readings"},
			})
			if err != nil {
				return err
			}
			return eng.DeployWorkflow(wf)
		},
	}
}

// RoutedApp is the routed two-step pipeline of the scaling experiments
// (internal/experiments/scale.go) as a served application: the border
// SP Admit runs on partition 0 (wherever scale_in batches land) and
// copies each batch to scale_jobs, which routes by the key every tuple
// of a batch shares — so the heavy interior SP Work runs on the key's
// partition. Deployed across a cluster, batches whose keys map to
// partitions on other nodes exercise the cross-node hand-off path on
// every workflow invocation; the scale_results row count is the
// exactly-once witness (one row per admitted batch, duplicates
// suppressed by the receiving node's ledger).
func RoutedApp() *App {
	return &App{
		Name:     "routed",
		Describe: "border Admit on partition 0, interior Work routed by key; exactly-once witness in scale_results",
		PartitionBy: func(streamName string, rows []types.Row) int {
			if streamName != "scale_jobs" || len(rows) == 0 || len(rows[0]) == 0 {
				return 0
			}
			return int(rows[0][0].Int())
		},
		RouteCall: func(_ string, params types.Row) int {
			if len(params) == 0 {
				return 0
			}
			return int(params[0].Int())
		},
		Setup: func(eng *pe.Engine) error {
			for _, ddl := range []string{
				"CREATE STREAM scale_in (k BIGINT, v BIGINT)",
				"CREATE STREAM scale_jobs (k BIGINT, v BIGINT)",
				"CREATE TABLE scale_results (k BIGINT, v BIGINT)",
			} {
				if err := eng.ExecDDL(ddl); err != nil {
					return err
				}
			}
			err := eng.RegisterProc(&pe.StoredProc{Name: "Admit", Func: func(ctx *pe.ProcCtx) error {
				_, err := ctx.Query("INSERT INTO scale_jobs SELECT k, v FROM scale_in")
				return err
			}})
			if err != nil {
				return err
			}
			err = eng.RegisterProc(&pe.StoredProc{Name: "Work", Func: func(ctx *pe.ProcCtx) error {
				if _, err := ctx.Query("SELECT COUNT(*) FROM scale_jobs"); err != nil {
					return err
				}
				_, err := ctx.Query("INSERT INTO scale_results SELECT k, v FROM scale_jobs")
				return err
			}})
			if err != nil {
				return err
			}
			w, err := workflow.New("routed", []workflow.Node{
				{SP: "Admit", Input: "scale_in", Outputs: []string{"scale_jobs"}},
				{SP: "Work", Input: "scale_jobs"},
			})
			if err != nil {
				return err
			}
			return eng.DeployWorkflow(w)
		},
	}
}

// ArchiveApp exercises the storage-manager seam end to end: every
// ingested batch lands one row in a disk-backed archive history table
// (CREATE ARCHIVE TABLE), so a long feed grows state far past the
// buffer-pool budget while the hot path stays bounded. The id primary
// key doubles as the exactly-once witness — a double-applied batch
// would collide, a lost one shows up in HistoryCount.
func ArchiveApp() *App {
	return &App{
		Name:     "archive",
		Describe: "append-only archive history table behind the buffer pool; HistoryCount OLTP witness",
		Setup: func(eng *pe.Engine) error {
			for _, ddl := range []string{
				"CREATE STREAM arch_in (id BIGINT, payload VARCHAR)",
				"CREATE ARCHIVE TABLE arch_history (id BIGINT PRIMARY KEY, payload VARCHAR)",
			} {
				if err := eng.ExecDDL(ddl); err != nil {
					return err
				}
			}
			err := eng.RegisterProc(&pe.StoredProc{Name: "Archive", Func: func(ctx *pe.ProcCtx) error {
				_, err := ctx.Query("INSERT INTO arch_history SELECT id, payload FROM arch_in")
				return err
			}})
			if err != nil {
				return err
			}
			err = eng.RegisterProc(&pe.StoredProc{Name: "HistoryCount", Func: func(ctx *pe.ProcCtx) error {
				res, err := ctx.Query("SELECT COUNT(*) FROM arch_history")
				if err != nil {
					return err
				}
				ctx.SetResult(res)
				return nil
			}})
			if err != nil {
				return err
			}
			wf, err := workflow.New("archive", []workflow.Node{
				{SP: "Archive", Input: "arch_in"},
			})
			if err != nil {
				return err
			}
			return eng.DeployWorkflow(wf)
		},
	}
}

// LinearRoadXWays is the expressway count the served Linear Road app
// seeds; clients must generate x-way values below it.
const LinearRoadXWays = 16

// LinearRoadApp serves the paper's §4.7 Linear Road workload: position
// reports route by x-way to the partition holding that x-way's
// vehicles, segment statistics, and tolls, and the per-minute rollup
// marker follows them. Both streams route by x-way, so a cluster
// deployment splits expressways across nodes with no cross-node
// hand-offs — the paper's shared-nothing scaling shape. The engine
// wraps the raw x-way into the cluster-wide partition space.
func LinearRoadApp() *App {
	cfg := linearroad.Config{XWays: LinearRoadXWays}
	return &App{
		Name:     "linearroad",
		Describe: "Linear Road §4.7: toll/accident workflow, x-ways split across partitions",
		PartitionBy: func(streamName string, rows []types.Row) int {
			if len(rows) == 0 {
				return 0
			}
			col := 3 // position_reports: (time, vid, speed, xway, ...)
			if streamName == linearroad.StreamMinutes {
				col = 1 // minute_marks: (minute, xway)
			}
			return int(rows[0][col].Int())
		},
		Setup: func(eng *pe.Engine) error {
			nparts := eng.Partitions()
			seed := func(xway int, stmt string) error {
				_, err := eng.AdHoc(xway%nparts, stmt)
				// Every node of a cluster runs Setup; each seeds only the
				// x-ways whose partitions it owns.
				var wne *pe.WrongNodeError
				if errors.As(err, &wne) {
					return nil
				}
				return err
			}
			if err := linearroad.SetupSchema(eng, cfg, seed); err != nil {
				return err
			}
			for _, sp := range linearroad.Procs(cfg) {
				if err := eng.RegisterProc(sp); err != nil {
					return err
				}
			}
			w, err := linearroad.Workflow()
			if err != nil {
				return err
			}
			return eng.DeployWorkflow(w)
		},
	}
}

// apps indexes the built-in applications by name.
func apps() map[string]*App {
	m := make(map[string]*App)
	for _, a := range []*App{PipelineApp(), RoutedApp(), LinearRoadApp(), ArchiveApp()} {
		m[a.Name] = a
	}
	return m
}

// LookupApp finds a built-in app by name, listing the known names in
// the error when it doesn't exist.
func LookupApp(name string) (*App, error) {
	m := apps()
	if a, ok := m[name]; ok {
		return a, nil
	}
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("server: unknown app %q (built-in apps: %v)", name, names)
}

// Apps returns the built-in applications in name order.
func Apps() []*App {
	m := apps()
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*App, 0, len(names))
	for _, n := range names {
		out = append(out, m[n])
	}
	return out
}
