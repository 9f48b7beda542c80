package pe

import (
	"fmt"
	"strings"

	"sstore/internal/cluster"
	"sstore/internal/stream"
	"sstore/internal/wal"
)

// PartitionTransport is the seam between a committing TE and the
// partition that consumes its output batch (DESIGN.md §13). Every
// cross-partition hand-off — live PartitionBy relocation and the
// recovery re-fire in FirePendingStreamTriggers — goes through
// Deliver; the engine never touches a sibling scheduler directly.
//
// Two implementations exist: localTransport (single-node; every
// partition is in-process, delivery is a direct scheduler push that
// allocates nothing beyond what the pre-seam dispatch did) and
// clusterTransport (a cluster map splits partitions across nodes;
// remote deliveries ride cluster.Peers over the wire protocol).
type PartitionTransport interface {
	// Deliver hands a relocated batch to partition target, which owns
	// the batch's consumers for it. retained=false means delivery is
	// complete and the caller must drop its local copy of the batch
	// (the rows now travel in the consumer tasks); retained=true means
	// the transport delivers asynchronously and the caller must KEEP
	// its copy — the transport deletes it when the receiving node
	// acknowledges the batch's commit.
	Deliver(from, target int, b stream.Batch) (retained bool, err error)
	// Pending counts deliveries not yet acknowledged by their
	// receiving node; always 0 in-process.
	Pending() int
	// Close releases transport resources (peer connections).
	Close() error
}

// deliverLocal enqueues a relocated batch's consumer tasks on a local
// partition — the shared tail of both transports. The rows travel in
// the first consumer task (appendConsumerTasks), pushed as one unit so
// batches of a stream arrive in the producer's commit order.
func (e *Engine) deliverLocal(target int, b stream.Batch) error {
	p := e.part(target)
	if p == nil {
		return fmt.Errorf("pe: no local partition %d", target)
	}
	consumers := e.consumers[b.Stream]
	if len(consumers) == 0 {
		return fmt.Errorf("pe: no consumer for stream %q", b.Stream)
	}
	if !p.sched.PushBackBatch(appendConsumerTasks(nil, consumers, b)) {
		return fmt.Errorf("pe: partition %d closed; batch %d on %s not dispatched", target, b.ID, b.Stream)
	}
	return nil
}

// localTransport is the single-node transport: every partition is
// in-process, Deliver is a direct push, nothing is ever retained.
type localTransport struct{ e *Engine }

func (lt localTransport) Deliver(from, target int, b stream.Batch) (bool, error) {
	return false, lt.e.deliverLocal(target, b)
}

func (lt localTransport) Pending() int { return 0 }
func (lt localTransport) Close() error { return nil }

// clusterTransport routes by the cluster map: local partitions take
// the in-process path, remote ones become OpHandoff requests on the
// owning node's peer connection. A remote delivery is retained — the
// sender keeps the committed batch in its stream table until the
// receiver acknowledges the hand-off's commit, so a receiver crash
// before the ack leaves the batch where sender-side recovery re-fires
// it (at-least-once; the receiver's ledger makes it exactly-once).
type clusterTransport struct {
	e     *Engine
	cfg   *cluster.Config
	peers *cluster.Peers
}

func (ct *clusterTransport) Deliver(from, target int, b stream.Batch) (bool, error) {
	if ct.e.part(target) != nil {
		return false, ct.e.deliverLocal(target, b)
	}
	node, err := ct.cfg.Owner(target)
	if err != nil {
		return false, err
	}
	e, k := ct.e, keyOf(b)
	ct.peers.Handoff(node.ID, from, target, b, func(dup bool, err error) { e.handoffAcked(from, k, err) })
	return true, nil
}

func (ct *clusterTransport) Pending() int { return ct.peers.Pending() }
func (ct *clusterTransport) Close() error { return ct.peers.Close() }

// handoffAcked completes a remote hand-off on the sending side: the
// receiving node committed (or dedup-suppressed) the batch, so the
// retained local copy can go. Deletion runs as a control task on the
// source partition — table mutation stays on the partition goroutine.
// A rejected hand-off keeps the copy (recovery re-fires it) and
// surfaces like any trigger failure. Called from the peer read loop
// with no cluster lock held.
func (e *Engine) handoffAcked(from int, k batchKey, ackErr error) {
	p := e.part(from)
	if p == nil {
		return
	}
	t := getTask()
	t.control = func(p *partition) error {
		if ackErr != nil {
			p.noteTriggerErr(fmt.Errorf("pe: hand-off of batch %d on %s: %w", k.id, k.stream, ackErr))
			return nil
		}
		p.gcBatch(k)
		delete(p.pendingGC, k)
		return nil
	}
	if !p.sched.PushBack(t) {
		putTask(t) // engine closing; recovery reconciles the copy
	}
}

// DeliverHandoff is the receiving side of a cross-node hand-off
// (wire.OpHandoff): admit the batch on the target partition's
// exactly-once ledger, then enqueue one hand-off TE per
// consumer. dup=true reports a suppressed re-delivery (already
// admitted — the hand-off was already applied or is in flight); ack
// is non-nil on a fresh admission and receives the outcome once every
// consumer TE committed, which is when the sender may drop its
// retained copy.
//
// Each consumer task carries the rows and places them itself
// (placeMovedBatch) — so each TE, live or replayed, is self-contained:
// its KindHandoff log record carries the rows, replays like a border
// record, and needs no cross-record refcounting. Hand-offs enqueue at
// the back: delivery order is what the ledger admits against
// (DESIGN.md §13).
//
//sstore:deterministic
func (e *Engine) DeliverHandoff(from, target int, b stream.Batch) (dup bool, ack <-chan error, err error) {
	p := e.part(target)
	if p == nil {
		return false, nil, e.remoteErr(target)
	}
	b.Stream = strings.ToLower(b.Stream)
	consumers := e.consumersOf(b.Stream)
	if len(consumers) == 0 {
		return false, nil, fmt.Errorf("pe: no consumer for hand-off stream %q", b.Stream)
	}
	if !p.ledger.Admit(b.Stream, b.ID) {
		e.handoffsDup.Add(1)
		return true, nil, nil
	}
	reply := make(chan callResult, len(consumers))
	ts := appendConsumerTasks(nil, consumers, b)
	for _, t := range ts {
		t.kind, t.in, t.gcRefs, t.reply = wal.KindHandoff, b, 0, reply
	}
	if !p.sched.PushBackBatch(ts) {
		for _, t := range ts {
			putTask(t)
		}
		// The batch never entered the engine: release the admission so
		// the sender's re-delivery after this node restarts is not
		// rejected as a duplicate.
		p.ledger.Release(b.Stream, b.ID)
		return false, nil, fmt.Errorf("pe: partition %d closed", target)
	}
	e.handoffsRecv.Add(1)
	out := make(chan error, 1)
	n := len(consumers)
	go func() {
		var first error
		for i := 0; i < n; i++ {
			if r := <-reply; r.err != nil && first == nil {
				first = r.err
			}
		}
		out <- first
	}()
	return false, out, nil
}

// HandoffStats reports the cluster hand-off counters: batches sent to
// peers, received from peers, re-deliveries suppressed by the ledger,
// and sends not yet acknowledged. All zero on a single-node engine.
func (e *Engine) HandoffStats() (sent, recv, dup uint64, pending int) {
	if e.peers != nil {
		sent = e.peers.Sent()
	}
	return sent, e.handoffsRecv.Load(), e.handoffsDup.Load(), e.transport.Pending()
}

// Peers exposes the cluster connection set for the server layer
// (request forwarding, re-delivery pulls); nil on a single-node
// engine.
func (e *Engine) Peers() *cluster.Peers { return e.peers }

// remoteErr builds the routing error for a partition owned by another
// node; the server catches *WrongNodeError and forwards the request.
func (e *Engine) remoteErr(pid int) error {
	if e.opts.Cluster == nil {
		return fmt.Errorf("pe: no partition %d", pid)
	}
	n, err := e.opts.Cluster.Owner(pid)
	if err != nil {
		return err
	}
	return &WrongNodeError{Partition: pid, Node: n.ID, Addr: n.Addr}
}

// WrongNodeError reports a request routed to a partition another node
// owns: the caller (or the server, transparently) should re-issue it
// against Addr.
type WrongNodeError struct {
	// Partition is the global partition ID the request routed to.
	Partition int
	// Node and Addr identify the owning node per the cluster map.
	Node int
	Addr string
}

func (e *WrongNodeError) Error() string {
	return fmt.Sprintf("pe: partition %d is owned by node %d (%s)", e.Partition, e.Node, e.Addr)
}
