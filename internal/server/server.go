// Package server is the engine's network front door: a TCP server
// speaking the internal/wire protocol, turning a single-process
// partition engine into a client/server system (the deployment shape
// the paper assumes — clients and stream injection feed the engine
// over a network, Figure 4).
//
// Each connection gets a reader goroutine and a wire.Conn writer.
// The reader decodes requests and submits them to the engine through
// the asynchronous entry points (CallAsync, IngestAsync), so requests
// pipeline: the exactly-once batch admission happens synchronously in
// the order requests arrive on the connection, while commit
// acknowledgements flow back whenever their transaction finishes —
// out of order when partitions differ. Backpressure rejections
// (pe.ErrOverloaded) are relayed with their retry-after hint instead
// of being treated as failures, so clients can retry identically.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"sstore/internal/pe"
	"sstore/internal/stream"
	"sstore/internal/wire"
)

// Server serves one engine over TCP. Create with New, start with
// Serve, stop with Close; the engine's lifecycle stays the caller's.
type Server struct {
	eng *pe.Engine

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New wraps an engine; the engine must be fully set up (DDL, stored
// procedures, workflows) before Serve admits traffic.
func New(eng *pe.Engine) *Server {
	return &Server{eng: eng, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close; it blocks. The
// listener is owned by the server from here on.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(c)
	}
}

// Close stops accepting, closes every connection, and waits for the
// per-connection goroutines to finish. It does not close the engine.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// handle runs one connection: a read loop that submits requests, and
// the connection's writer, which carries every response. Each
// in-flight request holds a slot in inflight; the connection closes
// only after the read loop ended and every in-flight response was
// written.
func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(c)

	// A peer whose hello does not match is simply hung up on — its own
	// handshake reports the precise mismatch, and nothing this server
	// could frame would be intelligible to a peer speaking another
	// protocol or version.
	wc, br, err := wire.Accept(c)
	if err != nil {
		return
	}
	var inflight sync.WaitGroup
	// One grow-only frame buffer per connection: DecodeRequest copies
	// everything it keeps, so each frame may overwrite the last.
	var scratch []byte
	for {
		payload, err := wire.ReadFrameBuf(br, scratch)
		scratch = payload
		if err != nil {
			break
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			// Protocol error: the stream cannot be resynchronized;
			// report and hang up.
			wc.Reply(&wire.Response{Status: wire.StatusErr, Msg: err.Error()})
			break
		}
		s.dispatch(req, wc, &inflight)
	}
	inflight.Wait()
	wc.Shutdown()
}

// dispatch submits one request to the engine. Submission itself is
// synchronous — admission order on a connection is request order —
// while waiting for the outcome moves to a goroutine per in-flight
// request.
func (s *Server) dispatch(req *wire.Request, wc *wire.Conn, inflight *sync.WaitGroup) {
	switch req.Op {
	case wire.OpCall:
		ch := s.eng.CallAsync(req.SP, req.Params)
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			r := <-ch
			if r.Err != nil {
				wc.Reply(s.respondErr(req, r.Err))
				return
			}
			resp := &wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK}
			if r.Res != nil {
				resp.Columns = r.Res.Columns
				resp.Rows = r.Res.Rows
				resp.LastInsertBatch = r.Res.LastInsertBatch
			}
			wc.Reply(resp)
		}()
	case wire.OpIngest:
		ch, err := s.eng.IngestAsync(req.Stream, &stream.Batch{ID: req.BatchID, Rows: req.Rows})
		if err != nil {
			// A WrongNodeError arrives synchronously (the routing check
			// runs before admission); forwarding it is a network round
			// trip, so it moves off the read loop like any outcome wait.
			var wne *pe.WrongNodeError
			if errors.As(err, &wne) && s.eng.Peers() != nil {
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					wc.Reply(s.forward(req, wne))
				}()
				return
			}
			wc.Reply(errResponse(req, err))
			return
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			if err := <-ch; err != nil {
				wc.Reply(errResponse(req, err))
				return
			}
			wc.Reply(&wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK, BatchID: req.BatchID})
		}()
	case wire.OpHandoff:
		// Inter-node hand-off of a relocated interior batch: admission
		// (dedup + enqueue) is synchronous like OpIngest, so a peer's
		// hand-offs for one stream are admitted in arrival order — the
		// invariant the high-water ledger depends on. The OK response is
		// the sender's signal to drop its retained copy, so it is held
		// back until every consumer transaction committed.
		dup, ack, err := s.eng.DeliverHandoff(req.From, req.Partition, stream.Batch{Stream: req.Stream, ID: req.BatchID, Rows: req.Rows})
		if err != nil {
			wc.Reply(errResponse(req, err))
			return
		}
		if dup {
			wc.Reply(&wire.Response{
				ID: req.ID, Op: req.Op, Status: wire.StatusOK, BatchID: req.BatchID, Duplicate: true,
			})
			return
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			if err := <-ack; err != nil {
				wc.Reply(errResponse(req, err))
				return
			}
			wc.Reply(&wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK, BatchID: req.BatchID})
		}()
	case wire.OpHandoffPull:
		// A restarted peer asks for every unacknowledged hand-off
		// destined to it to be sent again; its ledger suppresses the
		// ones that actually committed before the crash.
		if ps := s.eng.Peers(); ps != nil {
			ps.Redeliver(req.Node)
		}
		wc.Reply(&wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK})
	case wire.OpQuery:
		// The snapshot read path: the query pins a consistent view off
		// the partition loop, so it is dispatched straight from a
		// goroutine — it never occupies a scheduler slot and cannot be
		// rejected by queue-depth backpressure.
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			res, err := s.eng.Read(req.Partition, req.SQL, req.Params...)
			if err != nil {
				wc.Reply(s.respondErr(req, err))
				return
			}
			resp := &wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK}
			if res != nil {
				resp.Columns = res.Columns
				resp.Rows = res.Rows
			}
			wc.Reply(resp)
		}()
	case wire.OpStats:
		st := s.eng.Stats()
		wc.Reply(&wire.Response{
			ID: req.ID, Op: req.Op, Status: wire.StatusOK,
			Stats: wire.Stats{
				Executed:        st.Executed,
				Aborted:         st.Aborted,
				LogAppends:      st.LogAppends,
				LogSyncs:        st.LogSyncs,
				ClientTrips:     st.ClientTrips,
				EECrossings:     st.EECrossings,
				Overloaded:      st.Overloaded,
				HandoffsSent:    st.HandoffsSent,
				HandoffsRecv:    st.HandoffsRecv,
				HandoffsDup:     st.HandoffsDup,
				HandoffsPending: uint64(st.HandoffsPending),
			},
		})
	case wire.OpDrain:
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			if err := s.eng.Drain(); err != nil {
				wc.Reply(errResponse(req, err))
				return
			}
			wc.Reply(&wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK})
		}()
	default:
		wc.Reply(errResponse(req, fmt.Errorf("server: unknown op %d", req.Op)))
	}
}

// respondErr answers a request outcome error, first trying transparent
// forwarding when the error says the partition lives on a peer node: a
// client may send any request to any node of the cluster and the
// owning node serves it, one extra hop later. Callers run on in-flight
// goroutines, so the forwarding round trip blocks no read loop. Only
// called where req is safe to replay on the peer (Call, Query, and
// pre-admission Ingest rejections — never after side effects).
func (s *Server) respondErr(req *wire.Request, err error) *wire.Response {
	var wne *pe.WrongNodeError
	if errors.As(err, &wne) && s.eng.Peers() != nil {
		return s.forward(req, wne)
	}
	return errResponse(req, err)
}

// forward re-issues req against the owning node over the peer
// connection set and returns the answer under the original request
// ID. Forwarding failures surface as plain errors carrying the peer's
// identity, so a client can tell a routing problem from a local one.
func (s *Server) forward(req *wire.Request, wne *pe.WrongNodeError) *wire.Response {
	resp, err := s.eng.Peers().Forward(wne.Node, req)
	if err != nil {
		return errResponse(req, fmt.Errorf("server: forwarding to node %d (%s): %w", wne.Node, wne.Addr, err))
	}
	resp.ID = req.ID
	return resp
}

// errResponse is an error outcome, mapping a backpressure rejection
// to the overloaded status so the client sees the retry-after hint
// rather than an opaque failure.
func errResponse(req *wire.Request, err error) *wire.Response {
	var oe *pe.OverloadedError
	if errors.As(err, &oe) {
		return &wire.Response{
			ID: req.ID, Op: req.Op, Status: wire.StatusOverloaded,
			Partition:        oe.Partition,
			Depth:            oe.Depth,
			RetryAfterMicros: uint64(oe.RetryAfter.Microseconds()),
		}
	}
	return &wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusErr, Msg: err.Error()}
}
