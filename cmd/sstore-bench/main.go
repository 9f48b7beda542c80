// Command sstore-bench regenerates the paper's evaluation (§4): one
// table per figure, printed as aligned rows. Absolute numbers depend on
// the host; the shapes (who wins, by roughly what factor) are what
// internal/experiments asserts in its tests. Served throughput,
// latency, reads, spill and allocations are measured by the bench/
// harness (go run ./bench/cmd/bench), not here.
//
// Usage:
//
//	sstore-bench -exp fig5|fig6|fig7|fig8|fig9a|fig9b|fig10|fig11|ablation|scale|window|skew|cluster|all [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sstore/internal/experiments"
)

var figures = []struct {
	name  string
	title string
	fn    func(experiments.Options) (*experiments.Table, error)
}{
	{"fig5", "Figure 5: Execution Engine Triggers (transactions/sec)", experiments.Fig5},
	{"fig6", "Figure 6: Partition Engine Triggers (workflows/sec)", experiments.Fig6},
	{"fig7", "Figure 7: Native Windows (transactions/sec)", experiments.Fig7},
	{"fig8", "Figure 8: Leaderboard Maintenance, S-Store vs H-Store (workflows/sec)", experiments.Fig8},
	{"fig9a", "Figure 9a: Logging Overhead, Strong vs Weak (workflows/sec, no group commit)", experiments.Fig9a},
	{"fig9b", "Figure 9b: Recovery Time, Strong vs Weak (milliseconds)", experiments.Fig9b},
	{"fig10", "Figure 10: Voter w/ Leaderboard on Modern SDMSs (votes/sec)", experiments.Fig10},
	{"fig11", "Figure 11: Multi-core Scalability, Linear Road subset (max x-ways)", experiments.Fig11},
	{"ablation", "Ablations: index-vs-scan, batch size, trigger mechanism", experiments.Ablations},
	{"scale", "Partition scaling: workflow throughput with interior batches routed across partitions", experiments.Scale},
	{"window", "Incremental windows: insert and trigger-TE throughput vs window size (slide 1)", experiments.Window},
	{"skew", "Skewed load: intra-partition parallelism on the hot partition (calls/sec, latency)", experiments.Skew},
	{"cluster", "Cluster scale-out: Linear Road city scale across 2-4 server processes vs one 4-partition process", experiments.Cluster},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig5..fig11, ablation, scale, window, skew, cluster, or all")
	quick := flag.Bool("quick", false, "shrink sweeps and windows for a fast pass")
	flag.Parse()

	dir, err := os.MkdirTemp("", "sstore-bench-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sstore-bench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	opts := experiments.Options{Quick: *quick, Dir: dir}

	ran := 0
	for _, f := range figures {
		if *exp != "all" && *exp != f.name {
			continue
		}
		ran++
		fmt.Printf("=== %s ===\n", f.title)
		start := time.Now()
		table, err := f.fn(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sstore-bench: %s: %v\n", f.name, err)
			os.Exit(1)
		}
		table.Print(os.Stdout)
		fmt.Printf("(%s in %.1fs)\n\n", f.name, time.Since(start).Seconds())
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "sstore-bench: unknown experiment %q (want fig5..fig11, ablation, scale, window, skew, cluster, or all)\n", *exp)
		os.Exit(2)
	}
}
