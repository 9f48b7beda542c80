// Leaderboard: the paper's motivating application (§1.1, Figure 1) end
// to end — an American-Idol-style vote with validation, sliding-window
// trending statistics, and periodic elimination of the lowest
// contestant, run until a single winner remains.
//
// Run with: go run ./examples/leaderboard [-votes 5000]
package main

import (
	"flag"
	"fmt"
	"log"

	"sstore"
	"sstore/internal/leaderboard"
)

var votes = flag.Int("votes", 5000, "number of votes to cast")

func main() {
	flag.Parse()

	eng, err := sstore.Open(sstore.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	cfg := leaderboard.Config{
		Contestants:    6,
		TrendingWindow: 100,
		TrendingSlide:  1,
		DeleteEvery:    1000,
		TopK:           3,
	}
	seed := func(stmt string) error {
		_, err := eng.Query(0, stmt)
		return err
	}
	if err := leaderboard.SetupSchema(eng, cfg, seed); err != nil {
		log.Fatal(err)
	}
	for _, sp := range leaderboard.Procs(cfg) {
		if err := eng.RegisterProc(sp.Name, sp.Func, sp.Stmts...); err != nil {
			log.Fatal(err)
		}
	}
	wf, err := leaderboard.Workflow()
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.DeployWorkflow(wf); err != nil {
		log.Fatal(err)
	}

	// Cast the votes as a stream of single-vote atomic batches.
	gen := leaderboard.NewGenerator(42, cfg)
	for b := 1; b <= *votes; b++ {
		if err := eng.Ingest(leaderboard.StreamVotesIn, &sstore.Batch{
			ID:   int64(b),
			Rows: []sstore.Row{gen.Next()},
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		log.Fatal(err)
	}

	// Show the state the workflow maintained.
	print := func(title, sql string) {
		res, err := eng.Query(0, sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(title)
		for _, row := range res.Rows {
			fmt.Printf("  %v\n", row)
		}
	}
	print("top contestants (id, total):",
		"SELECT contestant_id, total FROM leaderboard_top ORDER BY total DESC")
	print("bottom contestants (id, total):",
		"SELECT contestant_id, total FROM leaderboard_bottom ORDER BY total ASC")
	print("trending, last 100 votes (id, recent):",
		"SELECT contestant_id, recent FROM leaderboard_trend ORDER BY recent DESC")
	print("still in the running:",
		"SELECT id, name, total FROM contestants WHERE active = true ORDER BY total DESC")

	res, err := eng.Query(0, "SELECT n FROM vote_counter")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("valid votes processed: %v of %d cast\n", res.Rows[0][0], *votes)
}
