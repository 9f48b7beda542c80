package pe

import (
	"fmt"
	"sync"
)

// releaseQueue is a partition's exit gate under pipelined group commit
// (DESIGN.md §5): the partition executes and commits ahead of the
// fsync, so every client-visible reply — ingest ack, Call result,
// control-task reply, hand-off consumer reply — parks here keyed by the
// highest LSN the partition had appended when the reply was produced,
// and leaves only once the log is durable there. The log's OnDurable
// callback drives release; replies leave in FIFO order.
//
// A failed sync is sticky and fail-stop: every parked reply and every
// later one carries the error instead of its result.
type releaseQueue struct {
	// mu is a leaf lock: only slice operations happen under it, and
	// replies are sent after it is released.
	mu      sync.Mutex
	durable uint64
	err     error
	parked  []parkedReply
	// spare is the other half of a double buffer: release hands parked
	// entries out through it, so a steady state allocates nothing.
	spare []parkedReply
}

type parkedReply struct {
	lsn   uint64
	reply chan callResult
	res   callResult
}

// put delivers res on reply once the log is durable at lsn — at once
// when it already is and nothing is parked ahead of it.
func (q *releaseQueue) put(lsn uint64, reply chan callResult, res callResult) {
	q.mu.Lock()
	if q.err == nil && (lsn > q.durable || len(q.parked) > 0) {
		q.parked = append(q.parked, parkedReply{lsn: lsn, reply: reply, res: res})
		q.mu.Unlock()
		return
	}
	if q.err != nil {
		res = callResult{err: q.err}
	}
	q.mu.Unlock()
	reply <- res
}

// release is the log's OnDurable callback: it sends every parked reply
// the durable LSN now covers, or — on a sync failure — fails the queue
// for good and sends every parked reply the error.
func (q *releaseQueue) release(durable uint64, err error) {
	q.mu.Lock()
	if err != nil && q.err == nil {
		q.err = fmt.Errorf("pe: command log: %w", err)
	}
	durable = max(durable, q.durable)
	q.durable = durable
	n := len(q.parked)
	if q.err == nil {
		n = 0
		for n < len(q.parked) && q.parked[n].lsn <= durable {
			n++
		}
	}
	if n == 0 {
		q.mu.Unlock()
		return
	}
	out := q.parked
	q.parked = append(q.spare[:0], out[n:]...)
	q.spare = nil
	failed := q.err
	q.mu.Unlock()
	for _, pr := range out[:n] {
		res := pr.res
		if failed != nil {
			res = callResult{err: failed}
		}
		pr.reply <- res
	}
	clear(out)
	q.mu.Lock()
	q.spare = out[:0]
	q.mu.Unlock()
}
