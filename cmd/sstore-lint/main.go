// Command sstore-lint runs the engine's invariant suite (analysis.Suite:
// replaydet, lockorder, hotalloc, errdrop, allocgate, replyexit,
// unused) over the module and prints findings in the usual
// file:line:col form. It exits non-zero when any diagnostic survives
// suppression, so CI can gate on it:
//
//	go run ./cmd/sstore-lint ./...
//
// Flags:
//
//	-only a,b   run only the named analyzers
//	-list       print the analyzers and exit
//	-dir path   load the module rooted there (default ".")
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sstore/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	dir := flag.String("dir", ".", "module directory to load")
	flag.Parse()

	if *list {
		for _, a := range analysis.Suite {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sstore-lint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sstore-lint:", err)
		os.Exit(2)
	}
	diags := analysis.Run(prog, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sstore-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analysis.Suite, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(analysis.Suite))
	for _, a := range analysis.Suite {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
