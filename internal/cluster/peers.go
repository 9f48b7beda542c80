package cluster

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sstore/internal/stream"
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
// Each connection is a wire.Conn: senders only queue frames, so a
// peer that stops reading stalls its connection's writer, never a
// Handoff caller or Close.
//
// Lock order (enforced by sstore-lint): Peers.mu (rank 6) → peer.mu
// (rank 7) → wire.Conn.mu (rank 8, leaf). Completion callbacks run on
// the connection's reader with no lock held, and take none.
type Peers struct {
	cfg  *Config
	self int

	mu     sync.Mutex
	peers  map[int]*peer // by node ID; static after NewPeers
	closed bool

	sent atomic.Uint64
}

// handoff is one relocated batch, retained until the receiving node
// acknowledges it.
type handoff struct {
	req  wire.Request
	done func(dup bool, err error)
	// acked is set by the first acknowledgement, whichever send of the
	// hand-off it answers; later ones are ignored, so done fires once.
	acked atomic.Bool
}

// peer is the connection state for one remote node.
type peer struct {
	node Node

	mu     sync.Mutex
	conn   *wire.Conn // nil while disconnected
	queue  []*handoff // hand-offs in send order; acked ones until pruned
	closed bool

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
		p := &peer{node: n, stopc: make(chan struct{})}
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
func (ps *Peers) Handoff(node, from, target int, b stream.Batch, done func(dup bool, err error)) {
	p := ps.peers[node]
	if p == nil {
		done(false, fmt.Errorf("cluster: no peer connection for node %d", node))
		return
	}
	h := &handoff{
		req: wire.Request{
			Op: wire.OpHandoff, From: from, Partition: target,
			Stream: b.Stream, BatchID: b.ID, Rows: b.Rows,
		},
		done: done,
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		done(false, fmt.Errorf("cluster: peers closed"))
		return
	}
	// Acks arrive roughly in send order, so acknowledged hand-offs
	// collect at the head of the queue.
	n := 0
	for n < len(p.queue) && p.queue[n].acked.Load() {
		n++
	}
	clear(p.queue[:n])
	p.queue = append(p.queue[n:], h)
	if p.conn != nil {
		p.send(h)
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
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	if conn == nil {
		return nil, fmt.Errorf("cluster: node %d (%s) unreachable", node, p.node.Addr)
	}
	resp, err := conn.RoundTrip(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", node, err)
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
	if p.conn != nil {
		p.resend() // else reconnect re-sends the queue anyway
	}
}

// Pull asks every live peer to re-deliver unacknowledged hand-offs
// addressed to this node: the restarted node's re-request. Peers that
// are down re-send automatically when their maintainers reconnect, so
// the pull is best-effort.
func (ps *Peers) Pull() {
	for _, id := range ps.peerIDs() {
		p := ps.peers[id]
		p.mu.Lock()
		if p.conn != nil {
			//lint:allow errdrop -- best-effort; reconnect re-requests implicitly
			p.conn.Send(&wire.Request{Op: wire.OpHandoffPull, Node: ps.self}, nil)
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
		for _, h := range p.queue {
			if !h.acked.Load() {
				total++
			}
		}
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
		p.conn = nil
		p.mu.Unlock()
		close(p.stopc)
		if conn != nil {
			conn.Close()
		}
	}
	return nil
}

// send queues h on the current connection; called with p.mu held and
// p.conn non-nil. The first answer to any send of h completes it. A
// lost connection completes nothing: h stays queued, and attach
// re-sends it.
func (p *peer) send(h *handoff) {
	//lint:allow errdrop -- a dead connection re-sends h on reconnect
	p.conn.Send(&h.req, func(resp *wire.Response, err error) {
		if err != nil || !h.acked.CompareAndSwap(false, true) {
			return
		}
		if resp.Status == wire.StatusOK {
			h.done(resp.Duplicate, nil)
		} else {
			h.done(false, fmt.Errorf("cluster: hand-off rejected by node %d: %s", p.node.ID, resp.Msg))
		}
	})
}

// resend drops acknowledged hand-offs and re-sends the rest in
// original order; called with p.mu held and p.conn non-nil. Holding
// p.mu serializes it against concurrent Handoff calls, so per-stream
// batch order — the receiver ledger's admission requirement — survives
// a reconnect or Redeliver; the ledger suppresses any the node had in
// fact committed.
func (p *peer) resend() {
	p.queue = slices.DeleteFunc(p.queue, func(h *handoff) bool { return h.acked.Load() })
	for _, h := range p.queue {
		p.send(h)
	}
}

// run is the connection maintainer: dial, handshake, re-send the
// unacknowledged queue, then wait for the connection to die; repeat
// with backoff until Close.
func (p *peer) run() {
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-p.stopc:
			return
		default:
		}
		conn, err := wire.Dial(p.node.Addr)
		if err != nil {
			select {
			case <-p.stopc:
				return
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, 2*time.Second)
			continue
		}
		backoff = 50 * time.Millisecond
		if p.attach(conn) {
			select {
			case <-conn.Done():
			case <-p.stopc:
			}
		}
		p.detach(conn)
	}
}

// attach installs a fresh connection and re-sends the queue; it
// reports false once the peer set is closed.
func (p *peer) attach(conn *wire.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conn = conn
	p.resend()
	return true
}

// detach retires a dead connection: queued hand-offs stay for the next
// attach; the connection's forwards and pulls have already failed.
func (p *peer) detach(conn *wire.Conn) {
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
	}
	p.mu.Unlock()
	conn.Close()
}
