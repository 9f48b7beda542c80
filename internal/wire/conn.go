package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

const (
	// dialTimeout bounds a connect; helloTimeout bounds the hello
	// exchange, so a silent or misdirected peer cannot wedge a dialer
	// or pin an accept goroutine.
	dialTimeout  = 2 * time.Second
	helloTimeout = 5 * time.Second
	// maxRetained caps the write buffer kept between drains: a burst
	// (a large result, a backlog behind a stalled peer) is released
	// once written instead of pinning its peak size for the
	// connection's lifetime.
	maxRetained = 1 << 20
)

var errClosed = errors.New("wire: connection closed")

// Conn is one pipelined protocol connection, shared by both ends.
// Senders encode frames into a buffer under mu and return at once; a
// single writer goroutine writes everything queued since its last
// write in one Write, so no network I/O happens under mu or under any
// caller's lock, and a peer that stops reading stalls only the writer.
//
// The requesting end (Dial) also runs a reader goroutine that matches
// responses to requests by ID and completes them with no lock held.
// The serving end (Accept) answers through Reply; its caller reads
// the requests.
//
// The first failure is sticky: it closes the connection, fails every
// pending request exactly once, and is returned by every later Send.
type Conn struct {
	nc   net.Conn
	done chan struct{} // closed on failure or close
	wg   sync.WaitGroup

	mu      sync.Mutex
	cond    sync.Cond // signals the writer: frames queued, closing, or failed
	out     []byte    // frames queued for the writer
	closing bool      // Shutdown: fail once out is written
	err     error
	nextID  uint64
	pending map[uint64]func(*Response, error)
}

// Dial connects to addr with a bounded connect and handshake and
// returns the requesting end of a pipelined connection.
func Dial(addr string) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return open(nc)
}

// open runs the handshake on nc and starts the requesting end.
func open(nc net.Conn) (*Conn, error) {
	br, err := handshake(nc)
	if err != nil {
		nc.Close()
		return nil, err
	}
	c := newConn(nc)
	c.wg.Add(1)
	go c.readLoop(br)
	return c, nil
}

// Accept runs the handshake on an accepted connection and returns its
// serving end plus the reader positioned at the first request frame.
// On error the caller still owns nc.
func Accept(nc net.Conn) (*Conn, *bufio.Reader, error) {
	br, err := handshake(nc)
	if err != nil {
		return nil, nil, err
	}
	return newConn(nc), br, nil
}

// handshake exchanges hellos under helloTimeout. The returned reader
// may already hold frame bytes that arrived behind the peer's hello.
func handshake(nc net.Conn) (*bufio.Reader, error) {
	if err := nc.SetDeadline(time.Now().Add(helloTimeout)); err != nil {
		return nil, err
	}
	if _, err := nc.Write(AppendHello(nil)); err != nil {
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	br := bufio.NewReader(nc)
	if err := ReadHello(br); err != nil {
		return nil, err
	}
	return br, nc.SetDeadline(time.Time{})
}

func newConn(nc net.Conn) *Conn {
	c := &Conn{nc: nc, done: make(chan struct{}), pending: make(map[uint64]func(*Response, error))}
	c.cond.L = &c.mu
	c.wg.Add(1)
	go c.writeLoop()
	return c
}

// Send assigns req an ID on this connection (req itself is not
// modified) and queues its frame. done, when non-nil, runs exactly
// once with no lock held: on the reader goroutine with the response,
// or wherever the connection fails with its sticky error. It must not
// block or call Close. An oversize request fails here, leaving the
// connection usable; a broken connection returns its sticky error.
// When Send returns an error, done never runs.
func (c *Conn) Send(req *Request, done func(*Response, error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	c.nextID++
	r := *req
	r.ID = c.nextID
	start := len(c.out)
	c.out = AppendRequest(c.out, &r)
	if n := len(c.out) - start - 4; n > MaxFrame {
		// Sending it would desynchronize the peer's frame reader.
		c.out = c.out[:start]
		return fmt.Errorf("wire: request of %d bytes exceeds frame limit %d", n, MaxFrame)
	}
	if done != nil {
		c.pending[r.ID] = done
	}
	c.cond.Signal()
	return nil
}

// RoundTrip sends req and waits for its response or the connection's
// failure.
func (c *Conn) RoundTrip(req *Request) (*Response, error) {
	type result struct {
		resp *Response
		err  error
	}
	ch := make(chan result, 1)
	if err := c.Send(req, func(resp *Response, err error) { ch <- result{resp, err} }); err != nil {
		return nil, err
	}
	r := <-ch
	return r.resp, r.err
}

// Reply queues a response frame. A response too large to frame is
// replaced by an error response to the same request: sending it would
// make the peer's frame reader drop the whole pipelined connection.
// Replies on a failed connection are dropped.
func (c *Conn) Reply(resp *Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	start := len(c.out)
	c.out = AppendResponse(c.out, resp)
	if n := len(c.out) - start - 4; n > MaxFrame {
		c.out = AppendResponse(c.out[:start], &Response{
			ID: resp.ID, Op: resp.Op, Status: StatusErr,
			Msg: fmt.Sprintf("wire: result of %d bytes exceeds frame limit %d", n, MaxFrame),
		})
	}
	c.cond.Signal()
}

// Err returns the sticky error, or nil while the connection is usable.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Done is closed once the connection has failed or been closed.
func (c *Conn) Done() <-chan struct{} { return c.done }

// Close fails the connection at once, dropping unwritten frames, and
// returns after its goroutines exit. Pending requests fail.
func (c *Conn) Close() {
	c.fail(errClosed)
	c.wg.Wait()
}

// Shutdown closes the connection once every frame queued before it
// has been written, and returns after its goroutines exit.
func (c *Conn) Shutdown() {
	c.mu.Lock()
	c.closing = true
	c.cond.Signal()
	c.mu.Unlock()
	c.wg.Wait()
}

// fail records the first error, closes the connection and completes
// every pending request with the error; later calls do nothing.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	pending := c.pending
	c.pending = nil
	c.cond.Signal()
	c.mu.Unlock()
	close(c.done)
	c.nc.Close()
	for _, done := range pending {
		done(nil, err)
	}
}

// writeLoop is the connection's only writer: it swaps the queued
// frames for its spare buffer and writes them with mu released.
func (c *Conn) writeLoop() {
	defer c.wg.Done()
	var buf []byte
	err := errClosed
	c.mu.Lock()
	for c.err == nil && (len(c.out) > 0 || !c.closing) {
		if len(c.out) == 0 {
			c.cond.Wait()
			continue
		}
		buf, c.out = c.out, buf[:0]
		c.mu.Unlock()
		_, werr := c.nc.Write(buf)
		if cap(buf) > maxRetained {
			buf = nil
		}
		c.mu.Lock()
		if werr != nil {
			err = fmt.Errorf("wire: write: %w", werr)
			break
		}
	}
	c.mu.Unlock()
	c.fail(err)
}

// readLoop completes pending requests with their responses until the
// connection fails. One grow-only frame buffer serves the connection's
// lifetime: DecodeResponse copies everything it keeps.
func (c *Conn) readLoop(br *bufio.Reader) {
	defer c.wg.Done()
	var scratch []byte
	for {
		payload, err := ReadFrameBuf(br, scratch)
		scratch = payload
		var resp *Response
		if err == nil {
			resp, err = DecodeResponse(payload)
		}
		if err != nil {
			c.fail(fmt.Errorf("wire: connection lost: %w", err))
			return
		}
		c.mu.Lock()
		done := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if done != nil {
			done(resp, nil)
		}
	}
}
