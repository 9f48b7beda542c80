package cluster

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/wire"
)

// fakeNode listens for node 1 of a two-node map and completes the hello
// with every connection Peers dials; serve then owns the connection.
// The returned Peers belong to node 0.
func fakeNode(t *testing.T, serve func(c net.Conn, br *bufio.Reader)) *Peers {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			if _, err := c.Write(wire.AppendHello(nil)); err != nil {
				continue
			}
			br := bufio.NewReader(c)
			if err := wire.ReadHello(br); err != nil {
				continue
			}
			go serve(c, br)
		}
	}()
	cfg, err := Parse(fmt.Sprintf("0@127.0.0.1:1=0;1@%s=1", ln.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPeers(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the maintainer to attach, so hand-offs take the live
	// connection rather than the reconnect re-send.
	p := ps.peers[1]
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		p.mu.Lock()
		up := p.conn != nil
		p.mu.Unlock()
		if up {
			return ps
		}
		if time.Now().After(deadline) {
			t.Fatal("peer connection never attached")
		}
	}
}

// TestPeersStalledPeer: a node that completes the hello and then never
// reads must not block the partition goroutine handing batches to it,
// nor Close. Every Handoff returns at once; the backlog waits in the
// connection's buffer and the retained queue.
func TestPeersStalledPeer(t *testing.T) {
	ps := fakeNode(t, func(net.Conn, *bufio.Reader) {})
	rows := []types.Row{{types.NewText(strings.Repeat("r", 64<<10))}}
	const n = 512
	handed := make(chan struct{})
	go func() {
		defer close(handed)
		for i := 1; i <= n; i++ {
			ps.Handoff(1, 0, 1, stream.Batch{Stream: "s", ID: int64(i), Rows: rows}, func(bool, error) {})
		}
	}()
	select {
	case <-handed:
	case <-time.After(2 * time.Second):
		t.Fatalf("%d Handoffs of 64 KiB to a stalled peer did not return within 2s", n)
	}
	if got := ps.Pending(); got != n {
		t.Errorf("Pending() = %d, want %d retained hand-offs", got, n)
	}
	closed := make(chan struct{})
	go func() {
		ps.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Peers.Close did not return within 2s with a stalled peer")
	}
}

// TestPeersRedeliverCompletesOnce: a hand-off re-sent by Redeliver is
// answered under both its original and its new request ID; done fires
// once and nothing stays pending.
func TestPeersRedeliverCompletesOnce(t *testing.T) {
	reqs := make(chan *wire.Request, 8)
	var conn net.Conn
	ready := make(chan struct{})
	ps := fakeNode(t, func(c net.Conn, br *bufio.Reader) {
		conn = c
		close(ready)
		for {
			payload, err := wire.ReadFrameBuf(br, nil)
			if err != nil {
				return
			}
			req, err := wire.DecodeRequest(payload)
			if err != nil {
				t.Errorf("fake node: %v", err)
				return
			}
			reqs <- req
		}
	})
	defer ps.Close()
	<-ready
	next := func() *wire.Request {
		t.Helper()
		select {
		case req := <-reqs:
			return req
		case <-time.After(5 * time.Second):
			t.Fatal("fake node received nothing")
			return nil
		}
	}
	var fired atomic.Int32
	ps.Handoff(1, 0, 1, stream.Batch{Stream: "s", ID: 7, Rows: []types.Row{{types.NewInt(1)}}}, func(dup bool, err error) {
		if err != nil {
			t.Errorf("hand-off failed: %v", err)
		}
		fired.Add(1)
	})
	first := next()
	ps.Redeliver(1)
	second := next()
	if first.Op != wire.OpHandoff || second.Op != wire.OpHandoff || first.BatchID != 7 || second.BatchID != 7 || first.ID == second.ID {
		t.Fatalf("fake node saw %+v then %+v; want batch 7 sent twice under two IDs", first, second)
	}
	for _, r := range []*wire.Request{first, second} {
		frame := wire.AppendResponse(nil, &wire.Response{ID: r.ID, Op: wire.OpHandoff, Status: wire.StatusOK, BatchID: 7, Duplicate: r == second})
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	// Responses complete in arrival order: once a later round trip
	// returns, both acknowledgements have been handled.
	go func() {
		select {
		case r := <-reqs:
			conn.Write(wire.AppendResponse(nil, &wire.Response{ID: r.ID, Op: r.Op, Status: wire.StatusOK}))
		case <-time.After(5 * time.Second):
			t.Error("fake node never received the forward")
			conn.Close()
		}
	}()
	if _, err := ps.Forward(1, &wire.Request{Op: wire.OpStats}); err != nil {
		t.Fatal(err)
	}
	if got := fired.Load(); got != 1 {
		t.Errorf("done fired %d times, want once", got)
	}
	if got := ps.Pending(); got != 0 {
		t.Errorf("Pending() = %d after the acknowledgement, want 0", got)
	}
}
