// Linear Road: the subset of the Linear Road stream benchmark used in
// the paper's scalability experiment (§4.7), on the public API —
// streaming position reports drive toll notification, accident
// detection, and per-minute toll/statistics rollups, partitioned by
// expressway across cores.
//
// Run with: go run ./examples/linearroad [-xways 4] [-cores 2] [-reports 20000]
package main

import (
	"flag"
	"fmt"
	"log"

	"sstore"
	"sstore/internal/linearroad"
)

var (
	xways   = flag.Int("xways", 4, "number of expressways")
	cores   = flag.Int("cores", 2, "number of partitions (cores)")
	reports = flag.Int("reports", 20000, "position reports to feed")
)

func main() {
	flag.Parse()

	eng, err := sstore.Open(sstore.Config{
		Partitions:  *cores,
		PartitionBy: linearroad.PartitionByXWay(*cores),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	cfg := linearroad.Config{XWays: *xways}
	seed := func(xway int, stmt string) error {
		_, err := eng.Query(xway%*cores, stmt)
		return err
	}
	if err := linearroad.SetupSchema(eng, cfg, seed); err != nil {
		log.Fatal(err)
	}
	for _, sp := range linearroad.Procs(cfg) {
		if err := eng.RegisterProc(sp.Name, sp.Func); err != nil {
			log.Fatal(err)
		}
	}
	wf, err := linearroad.Workflow()
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.DeployWorkflow(wf); err != nil {
		log.Fatal(err)
	}

	gen := linearroad.NewGenerator(7, cfg)
	for b := 1; b <= *reports; b++ {
		r := gen.Next()
		if err := eng.Ingest(linearroad.StreamReports, &sstore.Batch{
			ID:   int64(b),
			Rows: []sstore.Row{r.Row()},
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fed %d position reports for %d x-ways across %d cores\n\n", *reports, *xways, *cores)
	for pid := 0; pid < *cores; pid++ {
		vehicles, _ := eng.Query(pid, "SELECT COUNT(*) FROM vehicles")
		notifs, _ := eng.Query(pid, "SELECT COUNT(*) FROM notifications")
		accidents, _ := eng.Query(pid, "SELECT COUNT(*) FROM accidents WHERE active = true")
		minutes, _ := eng.Query(pid, "SELECT COALESCE(MAX(minute), 0) FROM stats_history")
		charged, _ := eng.Query(pid, "SELECT COALESCE(SUM(balance), 0) FROM vehicles")
		fmt.Printf("partition %d: %v vehicles, %v notifications, %v active accidents, "+
			"stats through minute %v, %v toll units charged\n",
			pid, vehicles.Rows[0][0], notifs.Rows[0][0], accidents.Rows[0][0],
			minutes.Rows[0][0], charged.Rows[0][0])
	}
}
