package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"sstore"
	"sstore/client"
	"sstore/internal/cluster"
	"sstore/internal/pe"
	"sstore/internal/wire"
)

// startClusterNode builds one node's engine (routed app) and serves it
// on ln. The caller owns teardown via the returned close func.
func startClusterNode(t *testing.T, cfg *cluster.Config, nodeID int, ln net.Listener) (*pe.Engine, func()) {
	t.Helper()
	a := RoutedApp()
	eng, err := pe.NewEngine(pe.Options{
		Cluster:     cfg,
		NodeID:      nodeID,
		PartitionBy: a.PartitionBy,
		RouteCall:   a.RouteCall,
	})
	if err != nil {
		t.Fatalf("node %d engine: %v", nodeID, err)
	}
	if err := a.Setup(eng); err != nil {
		eng.Close()
		t.Fatalf("node %d setup: %v", nodeID, err)
	}
	srv := New(eng)
	go srv.Serve(ln)
	return eng, func() {
		srv.Close()
		eng.Close()
	}
}

// twoNodeCluster stands up a 2-node, 4-partition cluster (partitions
// 0,1 on node 0; 2,3 on node 1) inside the test process, over real
// TCP.
func twoNodeCluster(t *testing.T) (cfg *cluster.Config, engs [2]*pe.Engine) {
	t.Helper()
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
	}
	spec := fmt.Sprintf("0@%s=0,1;1@%s=2,3", lns[0].Addr(), lns[1].Addr())
	cfg, err := cluster.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range engs {
		eng, closeNode := startClusterNode(t, cfg, i, lns[i])
		engs[i] = eng
		t.Cleanup(closeNode)
	}
	return cfg, engs
}

// TestClusterHandoffExactlyOnce: a two-node cluster runs the routed
// workflow end to end. Every border batch is admitted on node 0; the
// interior batches whose keys route to partitions 2,3 hand off to
// node 1 over the wire, exactly-once — the scale_results row counts
// equal the per-key batch counts, and the hand-off counters on both
// nodes agree.
func TestClusterHandoffExactlyOnce(t *testing.T) {
	cfg, engs := twoNodeCluster(t)

	cc, err := client.DialCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	const keys, perKey = 4, 25
	id := int64(0)
	for round := 0; round < perKey; round++ {
		for k := 0; k < keys; k++ {
			id++
			err := cc.Ingest("scale_in", &sstore.Batch{
				ID:   id,
				Rows: []sstore.Row{{sstore.Int(int64(k)), sstore.Int(id)}},
			})
			if err != nil {
				t.Fatalf("ingest batch %d (key %d): %v", id, k, err)
			}
		}
	}
	if err := cc.Drain(); err != nil {
		t.Fatalf("cluster drain: %v", err)
	}

	for k := 0; k < keys; k++ {
		res, err := cc.Query(k, "SELECT COUNT(*) FROM scale_results WHERE k = ?", sstore.Int(int64(k)))
		if err != nil {
			t.Fatalf("query key %d: %v", k, err)
		}
		if got := res.Rows[0][0].Int(); got != perKey {
			t.Errorf("key %d: %d results, want %d (exactly-once violated)", k, got, perKey)
		}
	}

	sent0, _, _, pending0 := engs[0].HandoffStats()
	_, recv1, dup1, _ := engs[1].HandoffStats()
	const cross = 2 * perKey // keys 2,3 hand off node 0 → node 1
	if sent0 != cross {
		t.Errorf("node 0 sent %d hand-offs, want %d", sent0, cross)
	}
	if recv1 != cross {
		t.Errorf("node 1 received %d hand-offs, want %d", recv1, cross)
	}
	if dup1 != 0 {
		t.Errorf("node 1 suppressed %d duplicates, want 0 in a crash-free run", dup1)
	}
	if pending0 != 0 {
		t.Errorf("node 0 still has %d unacknowledged hand-offs after drain", pending0)
	}

	// Duplicate suppression at the receiving seam: re-delivering an
	// already-admitted batch ID reports dup without re-running anything.
	rows := []sstore.Row{{sstore.Int(2), sstore.Int(9999)}}
	dup, ack, err := engs[1].DeliverHandoff(0, 2, sstore.Batch{Stream: "scale_jobs", ID: 9999, Rows: rows})
	if err != nil {
		t.Fatalf("fresh hand-off: %v", err)
	}
	if dup {
		t.Fatal("fresh batch 9999 reported as duplicate")
	}
	if err := <-ack; err != nil {
		t.Fatalf("hand-off 9999 commit: %v", err)
	}
	dup, _, err = engs[1].DeliverHandoff(0, 2, sstore.Batch{Stream: "scale_jobs", ID: 9999, Rows: rows})
	if err != nil {
		t.Fatalf("re-delivered hand-off: %v", err)
	}
	if !dup {
		t.Error("re-delivered batch 9999 not suppressed as duplicate")
	}
}

// TestClusterForwarding: requests sent to the wrong node are served
// transparently via peer forwarding, while the engine itself reports
// WrongNodeError naming the owner.
func TestClusterForwarding(t *testing.T) {
	cfg, engs := twoNodeCluster(t)

	// Engine-level: partition 2 lives on node 1.
	_, err := engs[0].AdHoc(2, "SELECT COUNT(*) FROM scale_results")
	var wne *pe.WrongNodeError
	if !errors.As(err, &wne) {
		t.Fatalf("AdHoc on remote partition: got %v, want WrongNodeError", err)
	}
	if wne.Partition != 2 || wne.Node != 1 {
		t.Errorf("WrongNodeError = %+v, want partition 2 on node 1", wne)
	}

	// Server-level: a client talking only to node 0 still reaches
	// partition 3 (ingest routes there; the query is forwarded).
	n0, err := cfg.NodeByID(0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(n0.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Ingest("scale_in", &sstore.Batch{
		ID:   1,
		Rows: []sstore.Row{{sstore.Int(3), sstore.Int(42)}},
	})
	if err != nil {
		t.Fatalf("ingest via node 0: %v", err)
	}
	cc, err := client.DialCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(3, "SELECT COUNT(*) FROM scale_results WHERE k = 3")
	if err != nil {
		t.Fatalf("forwarded query: %v", err)
	}
	if got := res.Rows[0][0].Int(); got != 1 {
		t.Errorf("forwarded query saw %d rows, want 1", got)
	}
}

// TestHandshakeRejection: the server hangs up on peers that do not
// lead with the protocol magic, and the client rejects servers
// announcing a different protocol version with a precise error.
func TestHandshakeRejection(t *testing.T) {
	eng, err := pe.NewEngine(pe.Options{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := New(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	// A peer speaking another protocol: the server must close without
	// ever sending a frame beyond its own hello.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 256)
	n := 0
	for {
		m, err := conn.Read(buf[n:])
		n += m
		if err != nil {
			// EOF or a reset — either way the server hung up.
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("server kept a bad-magic connection open")
			}
			break
		}
	}
	if n != wire.HelloSize {
		t.Errorf("server sent %d bytes to a bad-magic peer, want only its %d-byte hello", n, wire.HelloSize)
	}

	// A server announcing a future protocol version: the client must
	// reject it during Dial with the version error.
	badLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer badLn.Close()
	go func() {
		c, err := badLn.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		hello := wire.AppendHello(nil)
		hello[len(hello)-1] = 99 // future version
		c.Write(hello)
		io.Copy(io.Discard, c)
	}()
	if _, err := client.Dial(badLn.Addr().String()); err == nil {
		t.Error("Dial accepted a version-99 server")
	} else if want := "protocol version"; !strings.Contains(err.Error(), want) {
		t.Errorf("Dial error %q does not mention %q", err, want)
	}
}
