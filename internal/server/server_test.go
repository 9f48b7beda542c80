package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sstore"
	"sstore/client"
	"sstore/internal/pe"
	"sstore/internal/types"
	"sstore/internal/workflow"
)

// serve starts a server for eng on an ephemeral loopback port and
// returns its address; cleanup stops the server and engine.
func serve(t *testing.T, eng *pe.Engine) string {
	t.Helper()
	srv := New(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		eng.Close()
	})
	return ln.Addr().String()
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServedPipelineExactlyOnce drives the multi-SP pipeline workflow
// (Clean → Aggregate, plus Report OLTP reads) through a real TCP
// socket with several concurrent client connections, one sensor per
// connection, pipelined in-flight batches — and verifies exactly-once
// results: every batch's tuple is aggregated exactly once.
func TestServedPipelineExactlyOnce(t *testing.T) {
	app := PipelineApp()
	eng, err := pe.NewEngine(pe.Options{
		Partitions:  4,
		PartitionBy: app.PartitionBy,
		RouteCall:   app.RouteCall,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Setup(eng); err != nil {
		t.Fatal(err)
	}
	addr := serve(t, eng)

	const conns, batches = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for s := 0; s < conns; s++ {
		wg.Add(1)
		go func(sensor int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			// Pipeline every batch before waiting for any ack.
			acks := make([]<-chan error, 0, batches)
			for id := int64(1); id <= batches; id++ {
				ack, err := c.IngestAsync("raw_readings", &sstore.Batch{
					ID:   id,
					Rows: []sstore.Row{{sstore.Int(int64(sensor)), sstore.Int(7)}},
				})
				if err != nil {
					errs <- fmt.Errorf("sensor %d batch %d: %v", sensor, id, err)
					return
				}
				acks = append(acks, ack)
			}
			for id, ack := range acks {
				if err := <-ack; err != nil {
					errs <- fmt.Errorf("sensor %d batch %d ack: %v", sensor, id+1, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	c := dial(t, addr)
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for sensor := 0; sensor < conns; sensor++ {
		res, err := c.Call("Report", sstore.Int(int64(sensor)))
		if err != nil {
			t.Fatalf("Report(%d): %v", sensor, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("Report(%d): %d rows", sensor, len(res.Rows))
		}
		if n := res.Rows[0][2].Int(); n != batches {
			t.Errorf("sensor %d: aggregated %d readings, want %d (exactly-once violated)", sensor, n, batches)
		}
		if avg := res.Rows[0][1].Int(); avg != 7 {
			t.Errorf("sensor %d: avg %d, want 7", sensor, avg)
		}
	}

	// A duplicate batch ID is rejected server-side, not silently
	// re-applied.
	err = c.Ingest("raw_readings", &sstore.Batch{
		ID:   1,
		Rows: []sstore.Row{{sstore.Int(0), sstore.Int(7)}},
	})
	if err == nil {
		t.Fatal("duplicate batch accepted")
	}
	if errors.Is(err, sstore.ErrOverloaded) {
		t.Fatalf("duplicate batch reported as overload: %v", err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	// Clean + Aggregate per batch, plus the Report calls.
	if want := uint64(2 * conns * batches); st.Executed < want {
		t.Errorf("executed %d TEs, want >= %d", st.Executed, want)
	}
}

// TestServedBackpressureRetry pins a served engine at MaxQueueDepth 1
// and 2 and overloads it from two directions — an OLTP call flood and
// a sequential ingest feed — asserting that overload rejections surface
// as sstore.ErrOverloaded with a usable retry-after hint, and that
// retried requests all eventually commit exactly once. Depth 1 is the
// tightest bound the option allows.
func TestServedBackpressureRetry(t *testing.T) {
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			servedBackpressureRetry(t, depth)
		})
	}
}

func servedBackpressureRetry(t *testing.T, depth int) {
	eng, err := pe.NewEngine(pe.Options{Partitions: 1, MaxQueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ExecDDL("CREATE STREAM s1 (v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if err := eng.ExecDDL("CREATE TABLE sink (v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	err = eng.RegisterProc(&pe.StoredProc{Name: "Slow", Func: func(ctx *pe.ProcCtx) error {
		time.Sleep(200 * time.Microsecond)
		_, err := ctx.Query("INSERT INTO sink SELECT v FROM s1")
		return err
	}})
	if err != nil {
		t.Fatal(err)
	}
	err = eng.RegisterProc(&pe.StoredProc{Name: "Noop", Func: func(ctx *pe.ProcCtx) error {
		time.Sleep(100 * time.Microsecond)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := workflow.New("w", []workflow.Node{{SP: "Slow", Input: "s1"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.DeployWorkflow(wf); err != nil {
		t.Fatal(err)
	}
	addr := serve(t, eng)

	const batches = 60
	var sawOverload atomic.Bool
	stop := make(chan struct{})
	var floods sync.WaitGroup
	for i := 0; i < 3; i++ {
		floods.Add(1)
		go func() {
			defer floods.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.Call("Noop")
				if err != nil {
					if !errors.Is(err, sstore.ErrOverloaded) {
						t.Errorf("flood call: %v", err)
						return
					}
					sawOverload.Store(true)
					if sstore.RetryAfter(err) <= 0 {
						t.Error("overload rejection without retry-after hint")
						return
					}
					time.Sleep(sstore.RetryAfter(err))
				}
			}
		}()
	}

	ingester := dial(t, addr)
	for id := int64(1); id <= batches; id++ {
		err := ingester.IngestRetry("s1", &sstore.Batch{
			ID:   id,
			Rows: []sstore.Row{{sstore.Int(id)}},
		})
		if err != nil {
			t.Fatalf("batch %d: %v", id, err)
		}
	}
	close(stop)
	floods.Wait()

	if err := ingester.Drain(); err != nil {
		t.Fatal(err)
	}
	var rows int
	res, err := eng.AdHoc(0, "SELECT v FROM sink")
	if err != nil {
		t.Fatal(err)
	}
	rows = len(res.Rows)
	if rows != batches {
		t.Errorf("sink has %d rows, want %d (retried ingestion lost or duplicated batches)", rows, batches)
	}
	if !sawOverload.Load() {
		t.Log("note: flood never hit the depth bound on this host (timing-dependent)")
	}
	st, err := ingester.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sawOverload.Load() && st.Overloaded == 0 {
		t.Error("client saw overload but Stats.Overloaded is 0")
	}
}

// TestServerProtocolErrorHangsUp sends garbage and expects the server
// to drop the connection without taking the engine down.
func TestServerProtocolErrorHangsUp(t *testing.T) {
	eng, err := pe.NewEngine(pe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr := serve(t, eng)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Valid frame header, bogus payload (unknown op 99).
	raw.Write([]byte{2, 0, 0, 0, 1, 99})
	buf := make([]byte, 256)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The server answers with an error response and then closes.
	if _, err := raw.Read(buf); err != nil {
		t.Fatalf("expected an error response before hang-up: %v", err)
	}
	for {
		if _, err := raw.Read(buf); err != nil {
			break // connection closed, as expected
		}
	}

	// The engine (and server) still serve new connections.
	c := dial(t, addr)
	if _, err := c.Stats(); err != nil {
		t.Fatalf("server died after protocol error: %v", err)
	}
}

// TestLookupApp covers the registry surface.
func TestLookupApp(t *testing.T) {
	if _, err := LookupApp("pipeline"); err != nil {
		t.Errorf("pipeline: %v", err)
	}
	if _, err := LookupApp("nope"); err == nil {
		t.Error("unknown app accepted")
	}
	if got := len(Apps()); got == 0 {
		t.Error("no built-in apps")
	}
	_ = types.Row{} // keep the import for the routing helpers below
}

// TestByFirstIntRouting pins the shared routing helper.
func TestByFirstIntRouting(t *testing.T) {
	app := PipelineApp()
	if got := app.PartitionBy("raw_readings", []types.Row{{types.NewInt(3)}}); got != 3 {
		t.Errorf("PartitionBy = %d, want 3", got)
	}
	if got := app.PartitionBy("raw_readings", nil); got != 0 {
		t.Errorf("PartitionBy(empty) = %d, want 0", got)
	}
	if got := app.RouteCall("Report", types.Row{types.NewInt(2)}); got != 2 {
		t.Errorf("RouteCall = %d, want 2", got)
	}
}

// TestServedQuerySnapshotReads drives the OpQuery path end to end:
// Client.Query serves consistent reads off the partition loop while
// ingest traffic runs, writes are refused, and bad partitions error
// without killing the pipelined connection.
func TestServedQuerySnapshotReads(t *testing.T) {
	app := PipelineApp()
	eng, err := pe.NewEngine(pe.Options{
		Partitions:  2,
		PartitionBy: app.PartitionBy,
		RouteCall:   app.RouteCall,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Setup(eng); err != nil {
		t.Fatal(err)
	}
	addr := serve(t, eng)
	c := dial(t, addr)

	// Sensor 1 routes to partition 1.
	for b := int64(1); b <= 10; b++ {
		err := c.Ingest("raw_readings", &sstore.Batch{
			ID:   b,
			Rows: []sstore.Row{{sstore.Int(1), sstore.Int(b)}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(1, "SELECT n, total FROM averages WHERE sensor = ?", sstore.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 10 || res.Rows[0][1].Int() != 55 {
		t.Errorf("query read %v, want [[10 55]]", res.Rows)
	}
	if len(res.Columns) != 2 {
		t.Errorf("columns %v", res.Columns)
	}
	// Writes are rejected on the read path...
	if _, err := c.Query(1, "DELETE FROM averages"); err == nil {
		t.Error("write accepted on the query path")
	}
	// ...and a bad partition errors without desynchronizing the
	// connection.
	if _, err := c.Query(99, "SELECT n FROM averages"); err == nil {
		t.Error("query on partition 99 should error")
	}
	res, err = c.Query(1, "SELECT n FROM averages WHERE sensor = ?", sstore.Int(1))
	if err != nil {
		t.Fatalf("connection unusable after query errors: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 10 {
		t.Errorf("follow-up query read %v", res.Rows)
	}
}

// TestServedQueryNotRejectedByBackpressure: queries bypass the
// scheduler queue, so a full queue rejects ingest but keeps serving
// reads.
func TestServedQueryNotRejectedByBackpressure(t *testing.T) {
	app := PipelineApp()
	eng, err := pe.NewEngine(pe.Options{
		Partitions:    1,
		PartitionBy:   app.PartitionBy,
		RouteCall:     app.RouteCall,
		MaxQueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Setup(eng); err != nil {
		t.Fatal(err)
	}
	addr := serve(t, eng)
	c := dial(t, addr)
	// Saturate the queue: fire-and-forget ingests until one rejects.
	var sawOverload atomic.Bool
	for b := int64(1); b <= 200 && !sawOverload.Load(); b++ {
		ch, err := c.IngestAsync("raw_readings", &sstore.Batch{
			ID:   b,
			Rows: []sstore.Row{{sstore.Int(0), sstore.Int(b)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			if err := <-ch; err != nil && errors.Is(err, sstore.ErrOverloaded) {
				sawOverload.Store(true)
			}
		}()
		// Reads keep working regardless of queue depth.
		if _, err := c.Query(0, "SELECT COUNT(*) FROM averages"); err != nil {
			t.Fatalf("query failed under backpressure: %v", err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
}
