package experiments

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"sstore/internal/benchutil"
	"sstore/internal/netsim"
	"sstore/internal/pe"
	"sstore/internal/server"
	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/wire"
)

// NetBench measures served workflow throughput as client connections
// grow — the client/server experiment the netsim package only
// simulated. Each sweep point builds a fresh pipeline-app engine with
// one partition per connection, serves it over a real loopback TCP
// socket (internal/server + the wire protocol), and drives it with N
// concurrent client connections, one sensor per connection, each
// acknowledging every batch's border commit before sending the next —
// so every batch pays a real socket round trip where the in-process
// reference pays netsim's simulated one. The inproc-simrtt rows are
// that reference: the identical workload driven through IngestSync
// with netsim.DefaultClientRTT charged per batch, which is what every
// experiment in this package did before the engine had a network front
// door.
func NetBench(opts Options) (*benchutil.Table, error) {
	table := benchutil.NewTable("transport", "connections", "batches_per_sec", "speedup_vs_1conn")
	conns := opts.pick([]int{1, 2}, []int{1, 2, 4, 8})
	n := opts.n(150, 1000) // batches per connection
	transports := []struct {
		name  string
		probe func(conns, n int) (float64, error)
	}{
		{"tcp-loopback", netServedProbe},
		{"inproc-simrtt", netSimRTTProbe},
	}
	for _, tr := range transports {
		var base float64
		for _, c := range conns {
			tput, err := tr.probe(c, n)
			if err != nil {
				return nil, fmt.Errorf("netbench %s conns=%d: %w", tr.name, c, err)
			}
			if c == conns[0] {
				base = tput
			}
			speedup := 0.0
			if base > 0 {
				speedup = tput / base
			}
			table.AddRow(tr.name, c, tput, speedup)
		}
	}
	return table, nil
}

// netPipelineEngine builds the served pipeline app with one partition
// per connection, so each connection's sensor routes to its own
// partition — and that partition's exactly-once ledger.
func netPipelineEngine(conns int) (*pe.Engine, error) {
	app := server.PipelineApp()
	eng, err := pe.NewEngine(pe.Options{
		Partitions:  conns,
		PartitionBy: app.PartitionBy,
		RouteCall:   app.RouteCall,
	})
	if err != nil {
		return nil, err
	}
	if err := app.Setup(eng); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// netServedProbe serves the engine on a loopback socket and drives it
// with conns concurrent wire-protocol connections.
func netServedProbe(conns, n int) (float64, error) {
	eng, err := netPipelineEngine(conns)
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	srv := server.New(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-serveDone
	}()
	addr := ln.Addr().String()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(sensor int) {
			defer wg.Done()
			if err := driveNetConn(addr, sensor, n); err != nil {
				errs <- err
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return 0, err
	}
	if err := eng.Drain(); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if err := eng.TriggerErr(); err != nil {
		return 0, err
	}
	return float64(conns*n) / elapsed.Seconds(), nil
}

// driveNetConn is one benchmark client: a raw wire-protocol
// connection (the experiments package stays below sstore/client, which
// wraps exactly this loop) ingesting n batches for its sensor, each
// acknowledged before the next is sent.
func driveNetConn(addr string, sensor, n int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write(wire.AppendHello(nil)); err != nil {
		return err
	}
	rbuf := newFrameReader(conn)
	if err := wire.ReadHello(rbuf.br); err != nil {
		return err
	}
	var buf []byte
	for id := int64(1); id <= int64(n); id++ {
		buf = wire.AppendRequest(buf[:0], &wire.Request{
			ID: uint64(id), Op: wire.OpIngest, Stream: "raw_readings", BatchID: id,
			Rows: []types.Row{{types.NewInt(int64(sensor)), types.NewInt(id % 1000)}},
		})
		if _, err := conn.Write(buf); err != nil {
			return err
		}
		resp, err := rbuf.next()
		if err != nil {
			return err
		}
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("batch %d: status %d: %s", id, resp.Status, resp.Msg)
		}
	}
	return nil
}

// netSimRTTProbe is the pre-network-front-door reference: the same
// workload in-process, with netsim's simulated client RTT charged per
// batch instead of a real socket round trip.
func netSimRTTProbe(conns, n int) (float64, error) {
	eng, err := netPipelineEngine(conns)
	if err != nil {
		return 0, err
	}
	defer eng.Close()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(sensor int) {
			defer wg.Done()
			link := &netsim.Link{RTT: netsim.DefaultClientRTT}
			for id := int64(1); id <= int64(n); id++ {
				link.RoundTrip()
				err := eng.IngestSync("raw_readings", &stream.Batch{
					ID:   id,
					Rows: []types.Row{{types.NewInt(int64(sensor)), types.NewInt(id % 1000)}},
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return 0, err
	}
	if err := eng.Drain(); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if err := eng.TriggerErr(); err != nil {
		return 0, err
	}
	return float64(conns*n) / elapsed.Seconds(), nil
}

// frameReader decodes wire responses off a connection, reusing one
// grow-only frame buffer.
type frameReader struct {
	br      *bufio.Reader
	scratch []byte
}

func newFrameReader(conn net.Conn) *frameReader {
	return &frameReader{br: bufio.NewReader(conn)}
}

func (f *frameReader) next() (*wire.Response, error) {
	payload, err := wire.ReadFrameBuf(f.br, f.scratch)
	f.scratch = payload
	if err != nil {
		return nil, err
	}
	return wire.DecodeResponse(payload)
}
