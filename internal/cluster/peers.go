package cluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sstore/internal/types"
	"sstore/internal/wire"
)

// Peers manages one pipelined wire connection to every other node of
// the cluster map: dial with exponential backoff, the protocol
// handshake, and reconnect. Two kinds of traffic share each
// connection:
//
//   - Hand-offs (OpHandoff): relocated interior batches. Delivery is
//     at-least-once — a hand-off stays in the peer's pending queue
//     until the receiving node acknowledges its commit, and the whole
//     queue is re-sent in original order after every reconnect (and on
//     a peer's OpHandoffPull re-request). The receiver's dedup ledger
//     turns that into exactly-once.
//   - Forwards (OpCall/OpIngest/OpQuery relayed to the owning node):
//     request/response, failing fast when the peer is down — the
//     client owns the retry.
//
// Lock order (enforced by sstore-lint): Peers.mu (rank 6) → peer.mu
// (rank 7, leaf). Completion callbacks are always invoked with no
// cluster lock held.
type Peers struct {
	cfg  *Config
	self int

	mu     sync.Mutex
	peers  map[int]*peer // by node ID; static after NewPeers
	closed bool

	sent atomic.Uint64
}

// outstanding is one in-flight request on a peer connection. Hand-offs
// carry done and live in the peer's queue until acknowledged; forwards
// carry resp; pulls carry neither (fire-and-forget).
type outstanding struct {
	req  wire.Request
	done func(dup bool, err error)
	resp chan *wire.Response
}

// peer is the connection state for one remote node.
type peer struct {
	node Node

	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	enc     []byte // grow-only frame scratch, reused under mu
	nextID  uint64
	pending map[uint64]*outstanding
	queue   []*outstanding // unacked hand-offs in send order
	closed  bool

	stopc chan struct{}
}

// NewPeers builds the peer set for self and starts a connection
// maintainer per remote node. Connections are dialed eagerly and
// redialed with backoff until Close.
func NewPeers(cfg *Config, self int) (*Peers, error) {
	if _, err := cfg.NodeByID(self); err != nil {
		return nil, err
	}
	ps := &Peers{cfg: cfg, self: self, peers: make(map[int]*peer)}
	for i := range cfg.Nodes {
		n := cfg.Nodes[i]
		if n.ID == self {
			continue
		}
		p := &peer{
			node:    n,
			pending: make(map[uint64]*outstanding),
			stopc:   make(chan struct{}),
		}
		ps.peers[n.ID] = p
		go p.run()
	}
	return ps, nil
}

// Handoff queues a relocated interior batch for the owning node and
// returns immediately; done fires exactly once, when the receiving
// node acknowledges the batch's commit (dup reports that its ledger
// had already admitted the batch) or when the hand-off is permanently
// rejected. While unacknowledged the hand-off is re-sent after every
// reconnect; done never firing (peer dead for good) leaves the batch
// retained on the sender, visible as Pending.
func (ps *Peers) Handoff(node, from, target int, stream string, batchID int64, rows []types.Row, front bool, done func(dup bool, err error)) {
	p := ps.peers[node]
	if p == nil {
		done(false, fmt.Errorf("cluster: no peer connection for node %d", node))
		return
	}
	o := &outstanding{
		req: wire.Request{
			Op: wire.OpHandoff, From: from, Partition: target, Front: front,
			Stream: stream, BatchID: batchID, Rows: rows,
		},
		done: done,
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		done(false, fmt.Errorf("cluster: peers closed"))
		return
	}
	p.queue = append(p.queue, o)
	if p.conn != nil {
		// Write errors are not reported here: the connection dies, the
		// maintainer reconnects, and the queued hand-off is re-sent.
		//lint:allow errdrop -- resend-on-reconnect is the error path
		p.writeLocked(o)
	}
	p.mu.Unlock()
	ps.sent.Add(1)
}

// Forward relays a client request to the owning node and waits for its
// response. Unlike hand-offs, forwards are not queued across
// reconnects: a down peer fails the request immediately and the client
// retries against a live cluster.
func (ps *Peers) Forward(node int, req *wire.Request) (*wire.Response, error) {
	p := ps.peers[node]
	if p == nil {
		return nil, fmt.Errorf("cluster: no peer connection for node %d", node)
	}
	o := &outstanding{req: *req, resp: make(chan *wire.Response, 1)}
	p.mu.Lock()
	if p.conn == nil || p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("cluster: node %d (%s) unreachable", node, p.node.Addr)
	}
	err := p.writeLocked(o)
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	resp, ok := <-o.resp
	if !ok {
		return nil, fmt.Errorf("cluster: connection to node %d lost", node)
	}
	return resp, nil
}

// Redeliver re-sends every unacknowledged hand-off to node on the
// current connection — the response to the node's OpHandoffPull after
// it restarted and lost its queued (undispatched) deliveries. Re-sends
// preserve original order; the receiver's ledger suppresses any the
// node had in fact committed.
func (ps *Peers) Redeliver(node int) {
	p := ps.peers[node]
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil || p.closed {
		return // reconnect re-sends the queue anyway
	}
	// Drop the stale pending entries of queued hand-offs (their old
	// request IDs may still get responses; unmatched IDs are ignored)
	// and write the queue afresh.
	for id, o := range p.pending {
		if o.done != nil {
			delete(p.pending, id)
		}
	}
	for _, o := range p.queue {
		//lint:allow errdrop -- resend-on-reconnect is the error path
		p.writeLocked(o)
	}
}

// Pull asks every live peer to re-deliver unacknowledged hand-offs
// addressed to this node: the restarted node's re-request. Peers that
// are down re-send automatically when their maintainers reconnect, so
// the pull is best-effort.
func (ps *Peers) Pull() {
	for _, id := range ps.peerIDs() {
		p := ps.peers[id]
		o := &outstanding{req: wire.Request{Op: wire.OpHandoffPull, Node: ps.self}}
		p.mu.Lock()
		if p.conn != nil && !p.closed {
			//lint:allow errdrop -- best-effort; reconnect re-requests implicitly
			p.writeLocked(o)
		}
		p.mu.Unlock()
	}
}

// peerIDs returns the remote node IDs in ascending order.
func (ps *Peers) peerIDs() []int {
	ids := make([]int, 0, len(ps.peers))
	for i := range ps.cfg.Nodes {
		if id := ps.cfg.Nodes[i].ID; id != ps.self {
			if _, ok := ps.peers[id]; ok {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// Pending counts hand-offs not yet acknowledged by their receiving
// node, across all peers. A cluster is quiescent only when every node
// is drained and reports zero pending.
func (ps *Peers) Pending() int {
	total := 0
	for _, id := range ps.peerIDs() {
		p := ps.peers[id]
		p.mu.Lock()
		total += len(p.queue)
		p.mu.Unlock()
	}
	return total
}

// Sent counts hand-offs submitted since start.
func (ps *Peers) Sent() uint64 { return ps.sent.Load() }

// Close stops every connection maintainer and closes the connections.
// Unacknowledged hand-offs are dropped — their batches remain retained
// in the engine's stream tables, exactly the state recovery re-fires
// from.
func (ps *Peers) Close() error {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return nil
	}
	ps.closed = true
	ps.mu.Unlock()
	for _, id := range ps.peerIDs() {
		p := ps.peers[id]
		p.mu.Lock()
		p.closed = true
		conn := p.conn
		p.mu.Unlock()
		close(p.stopc)
		if conn != nil {
			conn.Close()
		}
	}
	return nil
}

// writeLocked assigns the next request ID, registers the outstanding,
// and writes its frame; called with p.mu held and p.conn non-nil. On a
// write error the connection is closed (waking the maintainer into
// reconnect) and the error returned for forwards to fail fast.
func (p *peer) writeLocked(o *outstanding) error {
	p.nextID++
	o.req.ID = p.nextID
	p.pending[o.req.ID] = o
	p.enc = wire.AppendRequest(p.enc[:0], &o.req)
	_, err := p.bw.Write(p.enc)
	if err == nil {
		err = p.bw.Flush()
	}
	if err != nil {
		delete(p.pending, o.req.ID)
		p.conn.Close()
		return fmt.Errorf("cluster: send to node %d: %w", p.node.ID, err)
	}
	return nil
}

// run is the connection maintainer: dial, handshake, re-send the
// unacknowledged queue, then read responses until the connection dies;
// repeat with backoff until Close.
func (p *peer) run() {
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-p.stopc:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", p.node.Addr, 2*time.Second)
		if err == nil {
			err = handshake(conn)
			if err != nil {
				conn.Close()
			}
		}
		if err != nil {
			select {
			case <-p.stopc:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			continue
		}
		backoff = 50 * time.Millisecond
		br := bufio.NewReader(conn)
		p.attach(conn)
		p.readLoop(br)
		p.detach()
		conn.Close()
	}
}

// handshake exchanges protocol hellos on a fresh connection, bounded
// by a deadline so a silent peer cannot wedge the maintainer.
func handshake(conn net.Conn) error {
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return err
	}
	if _, err := conn.Write(wire.AppendHello(nil)); err != nil {
		return fmt.Errorf("cluster: handshake: %w", err)
	}
	if err := wire.ReadHello(bufio.NewReaderSize(conn, wire.HelloSize)); err != nil {
		return err
	}
	return conn.SetDeadline(time.Time{})
}

// attach installs the new connection and re-sends the unacknowledged
// hand-off queue in order. Holding p.mu across the re-send serializes
// it against concurrent Handoff calls, so per-stream batch order — the
// receiver ledger's admission requirement — survives the reconnect.
func (p *peer) attach(conn net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn = conn
	p.bw = bufio.NewWriter(conn)
	for _, o := range p.queue {
		//lint:allow errdrop -- a failed re-send kills the conn; next reconnect retries
		p.writeLocked(o)
	}
}

// readLoop delivers responses until the connection fails.
func (p *peer) readLoop(br *bufio.Reader) {
	var scratch []byte
	for {
		payload, err := wire.ReadFrameBuf(br, scratch)
		scratch = payload
		if err != nil {
			return
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			return
		}
		p.handleResp(resp)
	}
}

// handleResp matches a response to its outstanding request and
// completes it: hand-offs leave the queue and fire done, forwards get
// their response. Callbacks run with no lock held.
func (p *peer) handleResp(resp *wire.Response) {
	p.mu.Lock()
	o := p.pending[resp.ID]
	delete(p.pending, resp.ID)
	if o != nil && o.done != nil {
		for i := range p.queue {
			if p.queue[i] == o {
				p.queue = append(p.queue[:i], p.queue[i+1:]...)
				break
			}
		}
	}
	p.mu.Unlock()
	if o == nil {
		return // stale ID from before a Redeliver; the fresh send owns the ack
	}
	switch {
	case o.resp != nil:
		o.resp <- resp
	case o.done != nil:
		if resp.Status == wire.StatusOK {
			o.done(resp.Duplicate, nil)
		} else {
			o.done(false, fmt.Errorf("cluster: hand-off rejected by node %d: %s", p.node.ID, resp.Msg))
		}
	}
}

// detach clears the dead connection: queued hand-offs stay for the
// next attach, forwards fail (closed channel), pulls evaporate.
func (p *peer) detach() {
	p.mu.Lock()
	p.conn = nil
	p.bw = nil
	var failed []*outstanding
	for id, o := range p.pending {
		if o.resp != nil {
			failed = append(failed, o)
		}
		delete(p.pending, id)
	}
	p.mu.Unlock()
	for _, o := range failed {
		close(o.resp)
	}
}
