// Command sstore-server serves an S-Store engine over TCP: the
// network front door that turns the in-process library into a
// client/server system. Clients speak the internal/wire protocol; the
// Go client lives in sstore/client and a load driver in
// cmd/sstore-bench (-client mode).
//
// Stored procedures are Go code, so the server deploys a compiled-in
// application selected with -app (see -list-apps). Example:
//
//	sstore-server -addr :7491 -app pipeline -partitions 4 -max-queue 1024
//
// With -recovery strong|weak and -log, the engine command-logs per the
// selected mode and replays the log before admitting traffic.
//
// A multi-node deployment passes every node the same cluster map and
// its own node ID:
//
//	sstore-server -cluster '0@127.0.0.1:7491=0,1;1@127.0.0.1:7492=2,3' -node 0 -addr 127.0.0.1:7491
//	sstore-server -cluster '0@127.0.0.1:7491=0,1;1@127.0.0.1:7492=2,3' -node 1 -addr 127.0.0.1:7492
//
// Each node runs only its partitions, keeps its own command log and
// snapshots, and hands relocated interior batches to partition owners
// over peer connections (DESIGN.md §13). -partitions is ignored under
// -cluster: the map fixes the cluster-wide partition space.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"sstore/internal/cluster"
	"sstore/internal/pe"
	"sstore/internal/recovery"
	"sstore/internal/server"
	"sstore/internal/wal"
)

func main() {
	addr := flag.String("addr", ":7491", "TCP listen address")
	app := flag.String("app", "pipeline", "built-in application to deploy (see -list-apps)")
	listApps := flag.Bool("list-apps", false, "list built-in applications and exit")
	partitions := flag.Int("partitions", 1, "number of partitions (execution sites)")
	maxQueue := flag.Int("max-queue", 0, "per-partition queue depth bound for border backpressure (0 = unbounded)")
	recoveryMode := flag.String("recovery", "none", "recovery mode: none, strong, or weak")
	logPath := flag.String("log", "", "command-log path (required for -recovery strong|weak)")
	snapshots := flag.String("snapshots", "", "checkpoint snapshot directory")
	group := flag.Bool("group-commit", false, "use group commit (SyncGroup) instead of per-commit fsync")
	clusterSpec := flag.String("cluster", "", "cluster map 'id@host:port=p0,p1;...' (all nodes get the same map)")
	nodeID := flag.Int("node", 0, "this node's ID in the -cluster map")
	ckptEvery := flag.Int64("checkpoint-every-bytes", 0, "take a checkpoint (and compact the log) after this many logged bytes (0 = manual)")
	archiveDir := flag.String("archive-dir", "", "directory for archive tables' page files (empty = auto temp dir)")
	archiveBudget := flag.Int64("archive-budget", 0, "buffer-pool bytes shared by archive tables across partitions (0 = small default)")
	flag.Parse()

	if *listApps {
		for _, a := range server.Apps() {
			fmt.Printf("%-12s %s\n", a.Name, a.Describe)
		}
		return
	}

	if err := run(*addr, *app, *partitions, *maxQueue, *recoveryMode, *logPath, *snapshots, *group, *clusterSpec, *nodeID, *ckptEvery, *archiveDir, *archiveBudget); err != nil {
		fmt.Fprintln(os.Stderr, "sstore-server:", err)
		os.Exit(1)
	}
}

func run(addr, appName string, partitions, maxQueue int, recoveryMode, logPath, snapshots string, group bool, clusterSpec string, nodeID int, ckptEvery int64, archiveDir string, archiveBudget int64) error {
	a, err := server.LookupApp(appName)
	if err != nil {
		return err
	}
	var mode recovery.Mode
	switch recoveryMode {
	case "none":
		mode = recovery.ModeNone
	case "strong":
		mode = recovery.ModeStrong
	case "weak":
		mode = recovery.ModeWeak
	default:
		return fmt.Errorf("unknown recovery mode %q (want none, strong, or weak)", recoveryMode)
	}
	opts := pe.Options{
		Partitions:           partitions,
		Recovery:             mode,
		LogPath:              logPath,
		SnapshotDir:          snapshots,
		PartitionBy:          a.PartitionBy,
		RouteCall:            a.RouteCall,
		MaxQueueDepth:        maxQueue,
		NodeID:               nodeID,
		CheckpointEveryBytes: ckptEvery,
		ArchiveDir:           archiveDir,
		ArchiveMemoryBudget:  archiveBudget,
	}
	if clusterSpec != "" {
		cfg, err := cluster.Parse(clusterSpec)
		if err != nil {
			return err
		}
		opts.Cluster = cfg
	}
	if group {
		opts.LogPolicy = wal.SyncGroup
	}
	eng, err := pe.NewEngine(opts)
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := a.Setup(eng); err != nil {
		return err
	}
	if mode != recovery.ModeNone {
		if err := eng.Recover(); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
	}
	if ps := eng.Peers(); ps != nil {
		// A (re)started node asks its peers to re-send unacknowledged
		// hand-offs addressed to it; the local ledger (rebuilt by
		// Recover) suppresses the ones that committed before the crash.
		ps.Pull()
	}

	srv := server.New(eng)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The "listening on" line is the readiness signal scripts wait for
	// (server.TestE2EBinaryServedWorkflow and experiments.Cluster among
	// them); with -addr :0 it is also where the chosen port is announced.
	if opts.Cluster != nil {
		fmt.Printf("sstore-server: app %s, node %d of cluster {%s}, recovery %s; listening on %s\n",
			a.Name, nodeID, opts.Cluster, mode, ln.Addr())
	} else {
		fmt.Printf("sstore-server: app %s, %d partition(s), recovery %s; listening on %s\n",
			a.Name, eng.Partitions(), mode, ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("sstore-server: shutting down")
		srv.Close()
	}()
	return srv.Serve(ln)
}
