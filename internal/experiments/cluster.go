package experiments

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sstore"
	"sstore/client"
	"sstore/internal/linearroad"
	"sstore/internal/server"
	"sstore/internal/types"
)

// Cluster measures scale-out (DESIGN.md §13): Linear Road at city
// scale — LinearRoadXWays expressways — driven over real TCP against
// real sstore-server processes, comparing a single 4-partition process
// with the same four partitions split across 2 and 4 node processes.
// Both streams route by x-way, so the workload is shared-nothing: each
// node runs its expressways' full workflow on its own partitions, logs
// and ledgers, and adding processes adds real OS-level
// parallelism (separate runtimes, separate allocators) at the price of
// per-node client connections.
//
// Exactly-once is verified per expressway: every position report
// increments exactly one seg_stats row, and the minute rollup moves
// those counts to stats_history verbatim — so for each x-way,
// Σ seg_stats.cnt + Σ stats_history.cnt must equal the reports
// ingested for it, whichever node served them.
func Cluster(opts Options) (*Table, error) {
	table := newTable("config", "nodes", "reports_per_sec", "speedup_vs_1proc", "exactly_once")
	bin, err := buildServerBinary(opts.Dir)
	if err != nil {
		return nil, err
	}
	const parts = 4
	nodeCounts := opts.pick([]int{1, 2}, []int{1, 2, 4})
	nReports := opts.n(2000, 20000)
	var base float64
	for _, nodes := range nodeCounts {
		name := fmt.Sprintf("cluster-%dn", nodes)
		if nodes == 1 {
			name = "single-4p"
		}
		tput, exact, err := clusterRun(bin, nodes, parts, nReports, opts)
		if err != nil {
			return nil, fmt.Errorf("cluster %s: %w", name, err)
		}
		if nodes == 1 {
			base = tput
		}
		speedup := 0.0
		if base > 0 {
			speedup = tput / base
		}
		table.addRow(name, nodes, tput, speedup, exact)
	}
	return table, nil
}

// clusterRun starts the server process(es) for one configuration,
// drives the workload, verifies exactly-once, and tears down.
func clusterRun(bin string, nodes, parts, nReports int, opts Options) (tput float64, exact bool, err error) {
	var procs []*serverProc
	defer func() {
		for _, p := range procs {
			p.Stop()
		}
	}()
	var spec string
	if nodes == 1 {
		p, err := startServer(bin, "-addr", "127.0.0.1:0", "-app", "linearroad",
			"-partitions", fmt.Sprint(parts))
		if err != nil {
			return 0, false, err
		}
		procs = append(procs, p)
		spec = fmt.Sprintf("0@%s=0-%d", p.Addr, parts-1)
	} else {
		addrs, err := reserveAddrs(nodes)
		if err != nil {
			return 0, false, err
		}
		spec = clusterSpec(addrs, parts)
		for id, addr := range addrs {
			p, err := startServer(bin, "-addr", addr, "-app", "linearroad",
				"-cluster", spec, "-node", fmt.Sprint(id))
			if err != nil {
				return 0, false, err
			}
			procs = append(procs, p)
		}
	}
	cc, err := client.DialClusterSpec(spec)
	if err != nil {
		return 0, false, err
	}
	defer cc.Close()
	return driveLinearRoad(cc, parts, nReports)
}

// clusterSpec splits partitions 0..parts-1 evenly across the node
// addresses in the textual -cluster format.
func clusterSpec(addrs []string, parts int) string {
	per := parts / len(addrs)
	var b strings.Builder
	for id, addr := range addrs {
		if id > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d@%s=%d-%d", id, addr, id*per, id*per+per-1)
	}
	return b.String()
}

// driveLinearRoad pushes city-scale traffic through the cluster — one
// pipelined ingest worker per partition, batch IDs sequential per
// partition as the exactly-once ledger requires — then checks the
// per-x-way report counts on whichever node owns each x-way.
func driveLinearRoad(cc *client.ClusterClient, parts, nReports int) (tput float64, exact bool, err error) {
	cfg := linearroad.Config{XWays: server.LinearRoadXWays}
	gen := linearroad.NewGenerator(23, cfg)
	perPart := make([][]types.Row, parts)
	counts := make([]int, server.LinearRoadXWays)
	for i := 0; i < nReports; i++ {
		r := gen.Next()
		pid := int(r.XWay) % parts
		perPart[pid] = append(perPart[pid], r.Row())
		counts[r.XWay]++
	}

	const window = 32
	errc := make(chan error, parts)
	var wg sync.WaitGroup
	start := time.Now()
	for pid := range perPart {
		rows := perPart[pid]
		if len(rows) == 0 {
			continue
		}
		wg.Add(1)
		go func(pid int, rows []types.Row) {
			defer wg.Done()
			node, err := cc.Config().Owner(pid)
			if err != nil {
				errc <- err
				return
			}
			c, err := cc.Node(node.ID)
			if err != nil {
				errc <- err
				return
			}
			acks := make([]<-chan error, 0, window)
			flush := func(keep int) error {
				for len(acks) > keep {
					if err := <-acks[0]; err != nil {
						return err
					}
					acks = acks[1:]
				}
				return nil
			}
			for i, row := range rows {
				ack, err := c.IngestAsync(linearroad.StreamReports, &sstore.Batch{
					ID: int64(i + 1), Rows: []sstore.Row{row},
				})
				if err != nil {
					errc <- err
					return
				}
				acks = append(acks, ack)
				if err := flush(window - 1); err != nil {
					errc <- err
					return
				}
			}
			if err := flush(0); err != nil {
				errc <- err
			}
		}(pid, rows)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return 0, false, err
	default:
	}
	if err := cc.Drain(); err != nil {
		return 0, false, err
	}
	tput = float64(nReports) / time.Since(start).Seconds()

	exact = true
	for x := 0; x < server.LinearRoadXWays; x++ {
		got := 0
		for _, q := range []string{
			"SELECT cnt FROM seg_stats WHERE xway = ?",
			"SELECT cnt FROM stats_history WHERE xway = ?",
		} {
			res, err := cc.Query(x%parts, q, sstore.Int(int64(x)))
			if err != nil {
				return 0, false, err
			}
			for _, r := range res.Rows {
				got += int(r[0].Int())
			}
		}
		if got != counts[x] {
			exact = false
			return tput, false, fmt.Errorf(
				"x-way %d: %d reports counted, %d ingested (exactly-once violated)", x, got, counts[x])
		}
	}
	return tput, exact, nil
}

// buildServerBinary compiles cmd/sstore-server into dir once per
// experiment run.
func buildServerBinary(dir string) (string, error) {
	root, err := modRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "sstore-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sstore-server")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/sstore-server: %v\n%s", err, out)
	}
	return bin, nil
}

// modRoot walks up from the working directory to the go.mod.
func modRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("go.mod not found above working directory")
		}
		dir = parent
	}
}

// reserveAddrs picks n distinct loopback addresses by briefly binding
// ephemeral ports. Cluster nodes need their addresses before they
// start (every process gets the same map), so unlike -addr :0 the
// ports are chosen first and rebound by the servers.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// serverProc is one running sstore-server process.
type serverProc struct {
	cmd *exec.Cmd
	// Addr is the announced listen address.
	Addr string
}

// startServer launches the binary and waits for its readiness line
// ("listening on <addr>"), returning the announced address.
func startServer(bin string, args ...string) (*serverProc, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd}
	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				lineCh <- strings.TrimSpace(line[i+len("listening on "):])
				return
			}
		}
		close(lineCh)
	}()
	select {
	case addr, ok := <-lineCh:
		if !ok {
			p.Stop()
			return nil, fmt.Errorf("server exited before announcing its address")
		}
		p.Addr = addr
		return p, nil
	case <-time.After(30 * time.Second):
		p.Stop()
		return nil, fmt.Errorf("server never announced its listen address")
	}
}

// Stop terminates the process (kill; the experiment owns no state
// worth a graceful drain) and reaps it.
func (p *serverProc) Stop() {
	if p.cmd.Process != nil {
		//lint:allow errdrop -- best-effort teardown of a scratch process
		p.cmd.Process.Kill()
	}
	//lint:allow errdrop -- the exit status of a killed scratch process is noise
	p.cmd.Wait()
}
