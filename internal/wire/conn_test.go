package wire

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sstore/internal/types"
)

// pipeConn opens the requesting end of a Conn over net.Pipe and
// returns it with the serving side, hello already exchanged, and the
// serving side's reader.
func pipeConn(t *testing.T) (*Conn, net.Conn, *bufio.Reader) {
	t.Helper()
	a, b := net.Pipe()
	br := bufio.NewReader(b)
	// net.Pipe is unbuffered: the serving side reads the hello before
	// writing its own, or both ends block writing.
	errc := make(chan error, 1)
	go func() {
		if err := ReadHello(br); err != nil {
			errc <- err
			return
		}
		_, err := b.Write(AppendHello(nil))
		errc <- err
	}()
	c, err := open(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		b.Close()
		c.Close()
	})
	return c, b, br
}

// readRequest reads and decodes one request on the serving side.
func readRequest(t *testing.T, br *bufio.Reader) *Request {
	t.Helper()
	payload, err := ReadFrameBuf(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestConnMatchesOutOfOrderResponses: responses answered in reverse
// order still complete the request that carries their ID.
func TestConnMatchesOutOfOrderResponses(t *testing.T) {
	c, b, br := pipeConn(t)
	const n = 3
	got := make([]chan *Response, n)
	for i := range got {
		ch := make(chan *Response, 1)
		got[i] = ch
		err := c.Send(&Request{Op: OpIngest, Stream: "s", BatchID: int64(i)}, func(resp *Response, err error) {
			if err != nil {
				t.Errorf("request %d failed: %v", i, err)
			}
			ch <- resp
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = readRequest(t, br)
	}
	for i := n - 1; i >= 0; i-- {
		frame := AppendResponse(nil, &Response{ID: reqs[i].ID, Op: OpIngest, Status: StatusOK, BatchID: reqs[i].BatchID})
		if _, err := b.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	for i, ch := range got {
		select {
		case resp := <-ch:
			if resp == nil || resp.BatchID != int64(i) {
				t.Errorf("request %d completed with %+v", i, resp)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never completed", i)
		}
	}
}

// TestConnLossFailsPendingOnce: a lost connection fails every pending
// request exactly once, and later sends return the sticky error.
func TestConnLossFailsPendingOnce(t *testing.T) {
	c, b, br := pipeConn(t)
	const n = 4
	var calls atomic.Int32
	failed := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		err := c.Send(&Request{Op: OpStats}, func(resp *Response, err error) {
			calls.Add(1)
			failed <- err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		readRequest(t, br)
	}
	b.Close()
	for i := 0; i < n; i++ {
		select {
		case err := <-failed:
			if err == nil {
				t.Error("pending request completed without an error")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d pending requests failed", i, n)
		}
	}
	<-c.Done()
	sticky := c.Err()
	if sticky == nil {
		t.Fatal("Err() is nil after the connection was lost")
	}
	if err := c.Send(&Request{Op: OpStats}, func(*Response, error) { calls.Add(1) }); !errors.Is(err, sticky) {
		t.Errorf("Send after loss = %v, want the sticky %v", err, sticky)
	}
	c.Close()
	if got := calls.Load(); got != n {
		t.Errorf("completions ran %d times for %d requests", got, n)
	}
}

// TestConnOversizeRequestFailsLocally: a request too large to frame is
// refused before anything is written, and the connection stays usable.
func TestConnOversizeRequestFailsLocally(t *testing.T) {
	c, b, br := pipeConn(t)
	huge := &Request{Op: OpIngest, Stream: "s", BatchID: 1,
		Rows: []types.Row{{types.NewText(strings.Repeat("x", MaxFrame))}}}
	err := c.Send(huge, func(*Response, error) { t.Error("oversize request completed") })
	if err == nil || !strings.Contains(err.Error(), "exceeds frame limit") {
		t.Fatalf("oversize Send = %v, want a frame-limit error", err)
	}
	if c.Err() != nil {
		t.Fatalf("oversize request broke the connection: %v", c.Err())
	}
	go func() {
		payload, err := ReadFrameBuf(br, nil)
		if err != nil {
			return
		}
		req, err := DecodeRequest(payload)
		if err != nil || req.Op != OpStats {
			t.Errorf("serving side read %+v, %v; want the stats request, not the oversize one", req, err)
			return
		}
		b.Write(AppendResponse(nil, &Response{ID: req.ID, Op: OpStats, Status: StatusOK}))
	}()
	if _, err := c.RoundTrip(&Request{Op: OpStats}); err != nil {
		t.Fatalf("request after the oversize one: %v", err)
	}
}

// TestConnOversizeReplyBecomesError: a response too large to frame
// reaches the peer as an error response to the same request.
func TestConnOversizeReplyBecomesError(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c := newConn(a)
	defer c.Close()
	c.Reply(&Response{ID: 5, Op: OpQuery, Status: StatusOK,
		Rows: []types.Row{{types.NewText(strings.Repeat("x", MaxFrame))}}})
	payload, err := ReadFrameBuf(bufio.NewReader(b), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 5 || resp.Status != StatusErr || !strings.Contains(resp.Msg, "exceeds frame limit") {
		t.Errorf("peer read %+v, want an error response to request 5", resp)
	}
}

// countingConn counts Write calls and holds the first one until gate
// closes, the shape of a slow socket under a burst.
type countingConn struct {
	net.Conn
	writes atomic.Int64
	gate   chan struct{}
}

func (cc *countingConn) Write(p []byte) (int, error) {
	if cc.writes.Add(1) == 1 {
		<-cc.gate
	}
	return cc.Conn.Write(p)
}

// TestConnCoalescesWrites: a burst of requests queued while a write is
// in flight leaves in far fewer writes than requests. Writing and
// flushing per request would take one write each.
func TestConnCoalescesWrites(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	go io.Copy(io.Discard, b)
	cc := &countingConn{Conn: a, gate: make(chan struct{})}
	c := newConn(cc)
	const burst = 256
	req := &Request{Op: OpIngest, Stream: "s", Rows: []types.Row{{types.NewInt(1)}}}
	for i := 0; i < burst; i++ {
		req.BatchID = int64(i)
		if err := c.Send(req, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(cc.gate)
	c.Shutdown()
	if err := c.Err(); !errors.Is(err, errClosed) {
		t.Fatalf("Shutdown ended with %v, want a clean close", err)
	}
	writes := cc.writes.Load()
	t.Logf("%d requests took %d writes", burst, writes)
	if writes >= burst {
		t.Errorf("%d requests took %d writes; queued frames should share a write", burst, writes)
	}
}

// discardConn is a net.Conn whose writes vanish.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// TestConnSendAllocFree: queuing a warm, steady-state request — ID,
// pending entry, frame encoding into the shared buffer, waking the
// writer — allocates nothing.
func TestConnSendAllocFree(t *testing.T) {
	c := newConn(discardConn{})
	defer c.Close()
	req := &Request{Op: OpIngest, Stream: "s1", BatchID: 3,
		Rows: []types.Row{{types.NewInt(1)}, {types.NewInt(2)}}}
	done := func(*Response, error) {}
	send := func() {
		if err := c.Send(req, done); err != nil {
			t.Fatal(err)
		}
		// Complete the request as the reader would, keeping the
		// pending table at its steady size.
		c.mu.Lock()
		delete(c.pending, c.nextID)
		c.mu.Unlock()
	}
	for i := 0; i < 100; i++ {
		send()
	}
	if n := testing.AllocsPerRun(1000, send); n != 0 {
		t.Fatalf("Conn.Send allocates %v/op on a warm connection; the client queues every batch through it", n)
	}
}
