// Command benchd is the benchmark's server binary: server.New(eng)
// over one of the benchmark's own apps (bench/apps), so a run can set
// any pe.Options. The harness (bench/cmd/bench) starts it, drives it
// over loopback TCP through the public client package, and talks to it
// on stdin/stdout for what the wire protocol does not carry:
//
//	stat       → one JSON line: process CPU, heap counters, SP body time
//	trace on   → start timing stored-procedure bodies (and sampling spans)
//	trace off
//	quit       → close server and engine cleanly, write spans, exit 0
//
// Closing stdin means quit, so benchd never outlives its harness.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"

	"sstore/bench/apps"
	"sstore/internal/pe"
	"sstore/internal/recovery"
	"sstore/internal/server"
	"sstore/internal/wal"
)

func main() {
	app := flag.String("app", "sensor", "application: sensor, voter or history")
	addr := flag.String("addr", "127.0.0.1:0", "TCP listen address")
	dir := flag.String("dir", "", "state directory (command log, archive page files)")
	logMode := flag.String("log", "none", "command log: none, group (strong recovery, SyncGroup) or nosync (strong recovery, SyncNone)")
	budget := flag.Int64("archive-budget", 0, "buffer-pool bytes for archive tables")
	spans := flag.String("spans", "", "file the sampled spans are written to at quit")
	flag.Parse()
	if err := run(*app, *addr, *dir, *logMode, *budget, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "benchd:", err)
		os.Exit(1)
	}
}

func run(appName, addr, dir, logMode string, budget int64, spansPath string) error {
	rec := &apps.Recorder{}
	app, err := apps.New(appName, rec)
	if err != nil {
		return err
	}
	if dir == "" {
		return fmt.Errorf("-dir is required")
	}
	opts := pe.Options{
		Partitions:          1,
		ArchiveDir:          filepath.Join(dir, "archive"),
		ArchiveMemoryBudget: budget,
	}
	if err := os.MkdirAll(opts.ArchiveDir, 0o755); err != nil {
		return err
	}
	switch logMode {
	case "none":
	case "group", "nosync":
		opts.Recovery = recovery.ModeStrong
		opts.LogPath = filepath.Join(dir, "cmd")
		opts.LogPolicy = wal.SyncGroup
		if logMode == "nosync" {
			opts.LogPolicy = wal.SyncNone
		}
	default:
		return fmt.Errorf("unknown -log %q", logMode)
	}
	eng, err := pe.NewEngine(opts)
	if err != nil {
		return err
	}
	if err := app.Setup(eng); err != nil {
		return err
	}
	if opts.Recovery != recovery.ModeNone {
		if err := eng.Recover(); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
	}
	srv := server.New(eng)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "benchd: app %s, log %s; listening on %s\n", appName, logMode, ln.Addr())
	if err := out.Flush(); err != nil {
		return err
	}

	cmds := make(chan string)
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			cmds <- sc.Text()
		}
		close(cmds)
	}()
	for {
		select {
		case err := <-served:
			return fmt.Errorf("serve: %w", err)
		case cmd, ok := <-cmds:
			switch {
			case !ok || cmd == "quit":
				if err := srv.Close(); err != nil {
					return err
				}
				if err := eng.Close(); err != nil {
					return err
				}
				if spansPath != "" {
					return writeSpans(spansPath, rec.Spans())
				}
				return nil
			case cmd == "trace on":
				rec.Enable(true)
			case cmd == "trace off":
				rec.Enable(false)
			case cmd == "stat":
				if err := json.NewEncoder(out).Encode(stat(rec)); err != nil {
					return err
				}
				if err := out.Flush(); err != nil {
					return err
				}
			default:
				return fmt.Errorf("unknown command %q", cmd)
			}
		}
	}
}

// stat snapshots the process.
func stat(rec *apps.Recorder) apps.Stat {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ns, calls := rec.Totals()
	return apps.Stat{
		CPUNs:      int64(apps.ProcessCPU()),
		Mallocs:    ms.Mallocs,
		AllocBytes: ms.TotalAlloc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SPNs:       ns,
		SPCalls:    calls,
	}
}

func writeSpans(path string, spans []apps.Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
