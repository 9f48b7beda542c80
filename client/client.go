// Package client is the Go client for an S-Store server
// (cmd/sstore-server): a TCP connection speaking the internal/wire
// protocol, with request pipelining — many Calls and Ingests may be in
// flight concurrently on one connection, and each completes when its
// transaction commits server-side.
//
// Backpressure is first-class: when the server rejects a request under
// queue-depth bounds, the returned error matches sstore.ErrOverloaded
// and carries the server's retry-after hint (sstore.RetryAfter). The
// rejected request left no server-side trace, so retrying the
// identical request — same batch ID included — is legal, provided the
// retry happens before later batch IDs are admitted on the same
// stream and partition (the server's exactly-once ledger is a
// high-water mark): resolve each batch before pipelining past it when
// the server may push back. IngestRetry packages that loop.
package client

import (
	"fmt"
	"math/rand/v2"
	"time"

	"sstore"
	"sstore/internal/wire"
)

// Result is a Call's client-visible outcome, mirroring sstore.Result.
type Result struct {
	Columns         []string
	Rows            []sstore.Row
	LastInsertBatch int64
}

// Stats is the server engine's counter snapshot.
type Stats = wire.Stats

// Client is one pipelined connection to a server. Methods are safe for
// concurrent use; responses are matched to requests by ID, so
// concurrent in-flight requests complete independently.
type Client struct {
	conn *wire.Conn
}

// Dial connects to a server at addr ("host:port") and completes the
// protocol handshake: both sides lead with magic + version bytes, and
// a peer that is not an sstore server of the same protocol version is
// rejected here with a precise error instead of failing obscurely on
// the first frame. The connect and the handshake are both bounded.
func Dial(addr string) (*Client, error) {
	conn, err := wire.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return &Client{conn: conn}, nil
}

// Close tears down the connection; in-flight requests fail.
func (c *Client) Close() error {
	c.conn.Close()
	return nil
}

// Broken reports whether the connection has died (sticky transport
// failure): every further request on this client fails, and the caller
// should redial. Request-level errors (abort, overload, routing) do
// not break a client.
func (c *Client) Broken() bool { return c.conn.Err() != nil }

// decodeErr converts a non-OK response into the matching Go error; an
// overloaded status becomes an sstore.OverloadedError so errors.Is
// against sstore.ErrOverloaded and sstore.RetryAfter work unchanged
// across the wire.
func decodeErr(resp *wire.Response) error {
	switch resp.Status {
	case wire.StatusOverloaded:
		return &sstore.OverloadedError{
			Partition:  resp.Partition,
			Depth:      resp.Depth,
			RetryAfter: time.Duration(resp.RetryAfterMicros) * time.Microsecond,
		}
	case wire.StatusErr:
		return fmt.Errorf("server: %s", resp.Msg)
	default:
		return nil
	}
}

// do sends req and waits for its outcome, mapping a non-OK response
// to its error.
func (c *Client) do(req *wire.Request) (*wire.Response, error) {
	resp, err := c.conn.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if err := decodeErr(resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Call invokes a stored procedure as an OLTP transaction and waits for
// its result.
func (c *Client) Call(sp string, params ...sstore.Value) (*Result, error) {
	resp, err := c.do(&wire.Request{Op: wire.OpCall, SP: sp, Params: sstore.Row(params)})
	if err != nil {
		return nil, err
	}
	return &Result{
		Columns:         resp.Columns,
		Rows:            resp.Rows,
		LastInsertBatch: resp.LastInsertBatch,
	}, nil
}

// Query runs a read-only SQL statement against a consistent snapshot
// of one partition. Queries are served off the partition loop (the
// snapshot read path): they never occupy a scheduler slot, are never
// rejected by queue-depth backpressure, and observe a single commit
// boundary — committed state only, never a half-executed transaction.
func (c *Client) Query(partition int, stmt string, params ...sstore.Value) (*Result, error) {
	resp, err := c.do(&wire.Request{
		Op: wire.OpQuery, Partition: partition, SQL: stmt, Params: sstore.Row(params),
	})
	if err != nil {
		return nil, err
	}
	return &Result{Columns: resp.Columns, Rows: resp.Rows}, nil
}

// Ingest pushes an atomic batch into a border stream and waits for the
// border transaction to commit (exactly-once: duplicate batch IDs are
// rejected server-side).
func (c *Client) Ingest(streamName string, b *sstore.Batch) error {
	ch, err := c.IngestAsync(streamName, b)
	if err != nil {
		return err
	}
	return <-ch
}

// IngestAsync submits the batch and returns a channel receiving the
// border transaction's commit outcome, enabling many in-flight batches
// per connection. The request is queued on the connection before
// IngestAsync returns, and frames leave in queue order, so a single
// caller's batches are admitted in submission order. Submission-time
// rejections (duplicate, overload) arrive on the channel like commit
// outcomes.
func (c *Client) IngestAsync(streamName string, b *sstore.Batch) (<-chan error, error) {
	out := make(chan error, 1)
	err := c.conn.Send(&wire.Request{
		Op: wire.OpIngest, Stream: streamName, BatchID: b.ID, Rows: b.Rows,
	}, func(resp *wire.Response, err error) {
		if err == nil {
			err = decodeErr(resp)
		}
		out <- err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RetryOptions bounds an overload-retry loop. The zero value retries
// forever (with jitter), preserving IngestRetry's historical contract.
type RetryOptions struct {
	// MaxAttempts caps the total number of Ingest attempts (initial
	// attempt included); 0 means unlimited. When the budget is
	// exhausted the last overload error is returned (it still matches
	// sstore.ErrOverloaded).
	MaxAttempts int
	// Deadline, when non-zero, stops retrying once the next backoff
	// would end past it; the last overload error is returned.
	Deadline time.Time
}

// IngestRetry ingests a batch, retrying after the server's hinted
// backoff for as long as the server reports overload — the retryable
// ingestion loop a production client runs under backpressure. Other
// errors (duplicate, abort, transport) return immediately.
//
// Each backoff applies ±50% jitter to the server's hint: every
// rejected client sleeping exactly the hint would wake the whole
// cohort simultaneously and re-stampede the border the moment it
// drained. Use IngestRetryOpts to bound the attempts or set a
// deadline.
func (c *Client) IngestRetry(streamName string, b *sstore.Batch) error {
	return c.IngestRetryOpts(streamName, b, RetryOptions{})
}

// IngestRetryOpts is IngestRetry with a bounded retry budget.
func (c *Client) IngestRetryOpts(streamName string, b *sstore.Batch, opts RetryOptions) error {
	attempts := 0
	for {
		err := c.Ingest(streamName, b)
		if err == nil {
			return nil
		}
		hint := sstore.RetryAfter(err)
		if hint <= 0 {
			return err
		}
		attempts++
		if opts.MaxAttempts > 0 && attempts >= opts.MaxAttempts {
			return fmt.Errorf("client: retry budget exhausted after %d attempts: %w", attempts, err)
		}
		wait := jitterWait(hint)
		if !opts.Deadline.IsZero() && time.Now().Add(wait).After(opts.Deadline) {
			return fmt.Errorf("client: retry deadline exceeded after %d attempts: %w", attempts, err)
		}
		time.Sleep(wait)
	}
}

// jitterWait spreads a retry hint uniformly over [hint/2, hint*3/2) so
// a cohort of rejected clients does not thunder back in lockstep.
func jitterWait(hint time.Duration) time.Duration {
	if hint <= 0 {
		return 0
	}
	return hint/2 + time.Duration(rand.Int64N(int64(hint)))
}

// Stats fetches the server engine's counters.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.do(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return Stats{}, err
	}
	return resp.Stats, nil
}

// Drain blocks until the server engine is quiescent — all queued work,
// including trigger cascades, finished. Intended for tests and
// controlled benchmarks; under continuous ingestion from other clients
// it may block indefinitely.
func (c *Client) Drain() error {
	_, err := c.do(&wire.Request{Op: wire.OpDrain})
	return err
}
