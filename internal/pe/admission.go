package pe

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/wal"
)

// This file is the engine's front door: client submissions (OLTP calls
// and ingested border batches) are routed to a partition, admitted on
// its exactly-once ledger, and queued subject to the MaxQueueDepth
// bound. Interior work never passes through here.

// ErrOverloaded is the sentinel matched by errors.Is when a border
// submission is rejected because the target partition's queue is at
// MaxQueueDepth. The concrete error is an *OverloadedError carrying a
// retry-after hint.
var ErrOverloaded = errors.New("pe: overloaded")

// OverloadedError reports a border rejection under queue-depth
// backpressure. The admission side effects of the rejected submission
// are fully undone (an ingested batch's exactly-once admission is
// released), so retrying the identical request after RetryAfter is
// legal — provided the injector retries before admitting later batch
// IDs on the same (stream, partition): the exactly-once ledger is a
// high-water mark and cannot regress below a later admission.
type OverloadedError struct {
	// Partition is the partition whose queue was full.
	Partition int
	// Depth is the queue depth observed at rejection time.
	Depth int
	// RetryAfter is a hint for how long the client should wait before
	// retrying — an estimate of the time the partition needs to drain
	// enough of its queue, not a guarantee.
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("pe: partition %d overloaded (queue depth %d); retry after %v",
		e.Partition, e.Depth, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// retryAfterHint estimates a backoff for a border rejection from the
// observed queue depth: roughly the time a partition takes to drain
// half the queue at typical in-memory TE cost, clamped to keep retries
// responsive under light overload and polite under heavy.
func retryAfterHint(depth int) time.Duration {
	d := time.Duration(depth) * 25 * time.Microsecond
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

func (e *Engine) routeCall(sp string, params types.Row) int {
	if e.opts.RouteCall != nil {
		return wrapPartition(e.opts.RouteCall(sp, params), e.nglobal)
	}
	return 0
}

// pushBorder enqueues a client-originated task (OLTP Call or ingested
// batch) subject to the MaxQueueDepth bound, translating a full queue
// into an *OverloadedError with a retry-after hint. Interior work never
// goes through here.
func (e *Engine) pushBorder(p *partition, t *task) error {
	ok, full, depth := p.sched.PushBackBounded(t)
	if ok {
		return nil
	}
	if full {
		e.overloaded.Add(1)
		return &OverloadedError{Partition: p.id, Depth: depth, RetryAfter: retryAfterHint(depth)}
	}
	return fmt.Errorf("pe: engine closed")
}

// Call invokes a stored procedure as an OLTP transaction (pull model)
// and waits for its result. The simulated client RTT is charged once
// per call — exactly the round trip the paper's H-Store baseline pays
// per workflow step (§4.2).
func (e *Engine) Call(sp string, params types.Row) (*Result, error) {
	res := <-e.CallAsync(sp, params)
	return res.Res, res.Err
}

// CallResult is the outcome delivered by CallAsync.
type CallResult struct {
	Res *Result
	Err error
}

// CallAsync submits an OLTP call without waiting; the channel receives
// the outcome. The RTT is charged before queueing (request leg) — the
// reply leg is notification-only, matching an asynchronous client.
func (e *Engine) CallAsync(sp string, params types.Row) <-chan CallResult {
	out := make(chan CallResult, 1)
	if e.link != nil {
		e.link.RoundTrip()
	}
	reply := make(chan callResult, 1)
	t := getTask()
	t.sp = sp
	t.params = params
	t.kind = wal.KindOLTP
	t.reply = reply
	pid := e.routeCall(sp, params)
	p := e.part(pid)
	if p == nil {
		putTask(t)
		out <- CallResult{Err: e.remoteErr(pid)}
		return out
	}
	if err := e.pushBorder(p, t); err != nil {
		putTask(t)
		out <- CallResult{Err: err}
		return out
	}
	go func() {
		r := <-reply
		out <- CallResult{Res: r.res, Err: r.err}
	}()
	return out
}

// NestedCall names one child of a nested transaction.
type NestedCall struct {
	SP     string
	Params types.Row
}

// CallNested executes the children as one nested transaction (§2.3):
// serial, non-interleavable, all-or-nothing.
func (e *Engine) CallNested(children []NestedCall) (*Result, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("pe: nested call needs children")
	}
	if e.link != nil {
		e.link.RoundTrip()
	}
	nested := make([]nestedChild, len(children))
	for i, c := range children {
		nested[i] = nestedChild{sp: c.SP, params: c.Params}
	}
	reply := make(chan callResult, 1)
	t := getTask()
	t.nested = nested
	t.kind = wal.KindOLTP
	t.reply = reply
	pid := e.routeCall(children[0].SP, children[0].Params)
	p := e.part(pid)
	if p == nil {
		putTask(t)
		return nil, e.remoteErr(pid)
	}
	if err := e.pushBorder(p, t); err != nil {
		putTask(t)
		return nil, err
	}
	r := <-reply
	return r.res, r.err
}

// Ingest pushes an atomic batch into a border stream (push model). It
// enqueues the border TE and returns immediately; the workflow runs
// asynchronously. Duplicate batch IDs are rejected idempotently
// (exactly-once ingestion).
func (e *Engine) Ingest(streamName string, b *stream.Batch) error {
	_, err := e.ingest(streamName, b, false)
	return err
}

// IngestSync is Ingest but waits for the border TE to commit (not for
// the whole downstream workflow; use Drain for that).
func (e *Engine) IngestSync(streamName string, b *stream.Batch) error {
	ch, err := e.ingest(streamName, b, true)
	if err != nil {
		return err
	}
	return (<-ch).err
}

// IngestAsync enqueues the batch like Ingest but returns a channel
// that receives the border TE's commit outcome. Unlike wrapping
// IngestSync in a goroutine, the enqueue (and the exactly-once batch
// admission) happens synchronously in submission order.
func (e *Engine) IngestAsync(streamName string, b *stream.Batch) (<-chan error, error) {
	ch, err := e.ingest(streamName, b, true)
	if err != nil {
		return nil, err
	}
	out := make(chan error, 1)
	go func() {
		r := <-ch
		out <- r.err
	}()
	return out, nil
}

func (e *Engine) ingest(streamName string, b *stream.Batch, sync bool) (chan callResult, error) {
	if b.Stream != "" && !strings.EqualFold(b.Stream, streamName) {
		return nil, fmt.Errorf("pe: batch %d names stream %q, ingested into %q", b.ID, b.Stream, streamName)
	}
	key := strings.ToLower(streamName)
	sp := e.borderConsumer(key)
	if sp == "" {
		return nil, fmt.Errorf("pe: no border stored procedure consumes stream %q", streamName)
	}
	pid := 0
	if e.opts.PartitionBy != nil {
		pid = wrapPartition(e.opts.PartitionBy(key, b.Rows), e.nglobal)
	}
	// The routing decision precedes the exactly-once admission: the
	// batch is admitted on the ledger of the partition it routes to,
	// and a batch bound to another node's partition leaves no entry
	// here — the owning node admits the forwarded request.
	target := e.part(pid)
	if target == nil {
		return nil, e.remoteErr(pid)
	}
	if !target.ledger.Admit(key, b.ID) {
		return nil, fmt.Errorf("pe: duplicate batch %d on stream %s", b.ID, streamName)
	}
	var reply chan callResult
	if sync {
		reply = make(chan callResult, 1)
	}
	t := getTask()
	t.sp = sp
	t.params = types.Row{types.NewInt(b.ID)}
	t.in = stream.Batch{Stream: key, ID: b.ID, Rows: b.Rows}
	t.kind = wal.KindBorder
	t.reply = reply
	if err := e.pushBorder(target, t); err != nil {
		// The batch never entered the engine (queue full or engine
		// closed): release the admission so a retry is not rejected as
		// a duplicate.
		putTask(t)
		target.ledger.Release(key, b.ID)
		return nil, err
	}
	return reply, nil
}

// borderConsumer finds the border SP consuming a stream. The mapping
// is registered (and checked unambiguous) at DeployWorkflow, so the
// answer is deterministic.
func (e *Engine) borderConsumer(streamKey string) string {
	return e.borderBy[streamKey].sp
}

// QueueDepth returns the number of queued tasks on a partition. Like
// its siblings Tables/AdHoc it validates the partition id instead of
// panicking on an out-of-range index.
func (e *Engine) QueueDepth(partition int) (int, error) {
	p := e.part(partition)
	if p == nil {
		return 0, e.remoteErr(partition)
	}
	return p.sched.Len(), nil
}
