// Command bench runs the repository's benchmark: see bench/README.md.
//
//	go run ./bench/cmd/bench -workload sensor-mem -seed 1 -seconds 24 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics — the end-to-end metrics of
// BENCHMARK.json with -trace 0, its per-layer metrics with -trace 1.
// Without -workload every workload runs in turn. -repeat K runs each K
// times on seeds seed … seed+K-1 and prints the noise table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sstore/bench"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "seed of the generated input")
	seconds := flag.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: traced run, per-layer metrics and trace.json; 0: end-to-end metrics")
	repeat := flag.Int("repeat", 1, "runs per workload, on consecutive seeds; more than 1 prints the noise table")
	out := flag.String("out", "", "also write every result, with host metadata, to this JSON file")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *repeat, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// The command runs from the repository root: BENCHMARK.json is there,
// and everything written goes under dir, which .gitignore lists.
const (
	specPath = "BENCHMARK.json"
	dir      = ".bench_build"
)

func run(workload string, seed int64, seconds int, trace bool, repeat int, out string) error {
	spec, err := bench.LoadSpec(specPath)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	workloads := bench.Workloads
	if workload != "" {
		w, err := bench.LookupWorkload(workload)
		if err != nil {
			return err
		}
		workloads = []bench.Workload{w}
	}
	ok := true
	var noise []bench.NoiseRow
	report := bench.Report{Host: bench.ReadHostInfo(), Seconds: seconds, Traced: trace}
	for _, w := range workloads {
		var results []*bench.Result
		for k := 0; k < repeat; k++ {
			res, err := bench.Run(bench.Options{
				Workload: w, Seed: seed + int64(k), Seconds: seconds, Trace: trace,
				Dir: dir, Spec: spec, Log: os.Stderr,
			})
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			ok = ok && res.Correct
			line, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Println(string(line))
			results = append(results, res)
			report.Runs = append(report.Runs, bench.ReportRun{Workload: w.Name, Seed: seed + int64(k), Result: res})
		}
		noise = append(noise, bench.Noise(w.Name, results)...)
	}
	if repeat > 1 {
		if err := bench.PrintNoise(os.Stderr, noise); err != nil {
			return err
		}
		if err := bench.WriteJSON(filepath.Join(dir, "noise.json"), noise); err != nil {
			return err
		}
	}
	if out != "" {
		if err := bench.WriteJSON(out, report); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("outputs were wrong")
	}
	return nil
}
