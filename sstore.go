// Package sstore is a single-node implementation of S-Store ("S-Store:
// Streaming Meets Transaction Processing", Meehan et al., VLDB 2015): a
// hybrid engine that runs streaming workflows and OLTP transactions in
// one in-memory, partitioned database with full ACID guarantees and
// streaming-aware ordering, triggers, windows, and recovery.
//
// # Model
//
// State comes in three kinds (§2): public shared tables, streams
// (time-varying tables of atomic batches), and windows (sliding-window
// tables private to their owning stored procedure). Transactions are
// predefined stored procedures — Go functions that issue SQL — invoked
// either by clients (OLTP, pull) or by arriving atomic batches
// (streaming, push). Workflows are DAGs of streaming procedures; the
// engine guarantees the paper's two ordering constraints: workflow
// order within each batch round and stream (batch) order per
// procedure.
//
// # Quick start
//
//	eng, _ := sstore.Open(sstore.Config{})
//	defer eng.Close()
//	eng.ExecDDL(`CREATE STREAM events (v BIGINT)`)
//	eng.ExecDDL(`CREATE TABLE totals (total BIGINT)`)
//	eng.ExecDDL(`INSERT INTO totals VALUES (0)`)
//	eng.RegisterProc("Count", func(ctx *sstore.ProcCtx) error {
//		_, err := ctx.Query(`UPDATE totals SET total = total + (SELECT ...)`)
//		return err
//	})
//	wf, _ := sstore.NewWorkflow("wf", []sstore.Node{{SP: "Count", Input: "events"}})
//	eng.DeployWorkflow(wf)
//	eng.Ingest("events", &sstore.Batch{ID: 1, Rows: []sstore.Row{{sstore.Int(1)}}})
//
// See examples/ for complete programs and DESIGN.md for the
// architecture.
package sstore

import (
	"errors"
	"time"

	"sstore/internal/cluster"
	"sstore/internal/ee"
	"sstore/internal/pe"
	"sstore/internal/recovery"
	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/wal"
	"sstore/internal/workflow"
)

// Value is a typed SQL value.
type Value = types.Value

// Row is a tuple of values.
type Row = types.Row

// Int returns an integer value.
func Int(v int64) Value { return types.NewInt(v) }

// Float returns a float value.
func Float(v float64) Value { return types.NewFloat(v) }

// Text returns a text value.
func Text(v string) Value { return types.NewText(v) }

// Bool returns a boolean value.
func Bool(v bool) Value { return types.NewBool(v) }

// Timestamp returns a timestamp value (microseconds since the epoch).
func Timestamp(micros int64) Value { return types.NewTimestamp(micros) }

// Null is the SQL NULL value.
var Null = types.Null

// ProcCtx is a stored procedure's execution context: parameters, batch
// identity, and transactional SQL execution.
type ProcCtx = pe.ProcCtx

// ProcFunc is a stored procedure body.
type ProcFunc = pe.ProcFunc

// Result is a transaction's client-visible outcome.
type Result = pe.Result

// QueryResult is the result set of one SQL statement.
type QueryResult = ee.Result

// Batch is an atomic batch of stream tuples.
type Batch = stream.Batch

// Assembler groups raw tuples into atomic batches.
type Assembler = stream.Assembler

// NewAssembler creates a batch assembler of the given batch size.
func NewAssembler(size int) (*Assembler, error) { return stream.NewAssembler(size) }

// Node is one stored procedure in a workflow DAG.
type Node = workflow.Node

// Workflow is a DAG of streaming stored procedures.
type Workflow = workflow.Workflow

// NewWorkflow validates nodes and builds a workflow.
func NewWorkflow(name string, nodes []Node) (*Workflow, error) { return workflow.New(name, nodes) }

// NestedCall names one child of a nested transaction.
type NestedCall = pe.NestedCall

// RecoveryMode selects the logging/recovery scheme.
type RecoveryMode = recovery.Mode

// Recovery modes (§2.4, §3.2.5).
const (
	// RecoveryNone disables command logging.
	RecoveryNone = recovery.ModeNone
	// RecoveryStrong logs every transaction execution; replay
	// reproduces the exact pre-crash state.
	RecoveryStrong = recovery.ModeStrong
	// RecoveryWeak logs only border (and OLTP) transactions and
	// re-derives interior work via upstream backup; replay produces
	// a legal state.
	RecoveryWeak = recovery.ModeWeak
)

// SyncPolicy selects commit durability for the command log.
type SyncPolicy = wal.SyncPolicy

// Command-log sync policies.
const (
	// SyncEachCommit makes every commit individually durable (no
	// group commit).
	SyncEachCommit = wal.SyncEachCommit
	// SyncGroup is pipelined group commit: partitions execute ahead
	// of the fsync, one fsync covers whatever committed during the
	// previous one, and acks, Call results and reads wait until the
	// log is durable at the state they reveal. A failed sync stops the
	// engine's log for good: every later reply carries the error.
	SyncGroup = wal.SyncGroup
	// SyncNone buffers log writes without fsync.
	SyncNone = wal.SyncNone
)

// Config configures an engine; see pe.Options for the fields. The zero
// value is a single-partition, no-logging, no-network-simulation
// engine suitable for tests and embedded use.
type Config = pe.Options

// ClusterConfig is a static cluster map: node ID → address → the
// partitions the node owns. Build one with ParseCluster (the textual
// form cmd/sstore-server -cluster takes) or literally; all nodes of a
// deployment must share the identical map.
type ClusterConfig = cluster.Config

// ClusterNode is one node of a ClusterConfig.
type ClusterNode = cluster.Node

// ParseCluster parses the textual cluster map format
// "id@host:port=p0,p1;id@host:port=p2,..." (ranges like "0-3" work).
func ParseCluster(spec string) (*ClusterConfig, error) { return cluster.Parse(spec) }

// ErrOverloaded is the sentinel matched by errors.Is when a Call or
// Ingest is rejected by MaxQueueDepth backpressure. The rejected
// request left no trace (an ingested batch's exactly-once admission is
// released), so retrying the identical request is legal as long as the
// injector retries before submitting later batch IDs on the same
// stream and partition — see DESIGN.md §7.
var ErrOverloaded = pe.ErrOverloaded

// OverloadedError is the concrete border-rejection error; it carries
// the partition, the observed queue depth, and a retry-after hint.
type OverloadedError = pe.OverloadedError

// RetryAfter extracts the backoff hint from an overload rejection, or
// 0 when err is not one.
func RetryAfter(err error) time.Duration {
	var oe *OverloadedError
	if errors.As(err, &oe) {
		return oe.RetryAfter
	}
	return 0
}

// Engine is a running S-Store instance.
type Engine struct {
	pe *pe.Engine
}

// Stats aggregates engine counters.
type Stats = pe.Stats

// Open builds and starts an engine.
func Open(cfg Config) (*Engine, error) {
	inner, err := pe.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{pe: inner}, nil
}

// Close drains and stops the engine.
func (e *Engine) Close() error { return e.pe.Close() }

// Partitions returns the partition count.
func (e *Engine) Partitions() int { return e.pe.Partitions() }

// ExecDDL runs a DDL statement (CREATE TABLE/STREAM/WINDOW/INDEX) on
// every partition.
func (e *Engine) ExecDDL(ddl string) error { return e.pe.ExecDDL(ddl) }

// ExecDDLOwned runs DDL attributed to a stored procedure; a CREATE
// WINDOW executed this way is private to that procedure (§3.2.2).
func (e *Engine) ExecDDLOwned(owner, ddl string) error { return e.pe.ExecDDLOwned(owner, ddl) }

// RegisterProc registers a stored procedure. Optional stmts declare
// the body's SQL, compiled once at registration and run by index with
// ctx.Exec (§3.1); bodies that only use ctx.Query declare none.
func (e *Engine) RegisterProc(name string, fn ProcFunc, stmts ...string) error {
	return e.pe.RegisterProc(&pe.StoredProc{Name: name, Func: fn, Stmts: stmts})
}

// RegisterProcAccess registers a stored procedure together with its
// declared table access footprint: the tables the body reads and
// writes (the procedure's workflow input stream, if any, is added to
// the writes automatically). The declaration is enforced — a
// statement touching an undeclared table fails with an error, under
// serial and parallel execution alike — and makes the procedure
// eligible for intra-partition parallelism (Config.Workers): calls
// whose declared sets don't conflict may run their bodies
// concurrently. See DESIGN.md §11.
func (e *Engine) RegisterProcAccess(name string, reads, writes []string, fn ProcFunc) error {
	return e.pe.RegisterProc(&pe.StoredProc{
		Name:   name,
		Access: &pe.ProcAccess{Reads: reads, Writes: writes},
		Func:   fn,
	})
}

// AddEETrigger attaches an execution-engine trigger: SQL statements
// that run, inside the firing transaction, whenever an atomic batch is
// inserted into the stream (or a window slides). Statements receive the
// batch ID as parameter ?1 (§3.2.3).
func (e *Engine) AddEETrigger(table string, stmts ...string) error {
	return e.pe.AddEETrigger(table, stmts...)
}

// MaintainWindowAggregate registers an incrementally maintained
// aggregate (count/sum/avg/min/max) over a window table's column ("*"
// for COUNT(*)): matching aggregate queries read the stored value
// instead of scanning the window. With groupBy columns, count or
// BIGINT sum is kept per key and serves GROUP BY queries over exactly
// those keys that ORDER BY every key. Re-issue at boot before Recover,
// like DDL.
func (e *Engine) MaintainWindowAggregate(table, fn, column string, groupBy ...string) error {
	return e.pe.MaintainWindowAggregate(table, fn, column, groupBy...)
}

// DeployWorkflow wires a workflow's edges into partition-engine
// triggers and marks its border procedures for logging.
func (e *Engine) DeployWorkflow(w *Workflow) error { return e.pe.DeployWorkflow(w) }

// Call invokes a stored procedure as an OLTP transaction and waits.
func (e *Engine) Call(sp string, params ...Value) (*Result, error) {
	return e.pe.Call(sp, Row(params))
}

// CallResult is the outcome delivered by CallAsync.
type CallResult = pe.CallResult

// CallAsync invokes a stored procedure without waiting; the returned
// channel receives the outcome. Pipelining calls this way is also what
// lets a Workers-armed engine form waves of concurrent non-conflicting
// procedures — a strictly synchronous caller never queues more than
// one task at a time.
func (e *Engine) CallAsync(sp string, params ...Value) <-chan CallResult {
	return e.pe.CallAsync(sp, Row(params))
}

// CallNested executes children as one nested transaction (§2.3).
func (e *Engine) CallNested(children []NestedCall) (*Result, error) {
	return e.pe.CallNested(children)
}

// Ingest pushes an atomic batch into a border stream asynchronously.
func (e *Engine) Ingest(streamName string, b *Batch) error { return e.pe.Ingest(streamName, b) }

// IngestSync pushes a batch and waits for the border transaction to
// commit.
func (e *Engine) IngestSync(streamName string, b *Batch) error {
	return e.pe.IngestSync(streamName, b)
}

// IngestAsync enqueues the batch like Ingest but returns a channel that
// receives the border transaction's commit outcome. The enqueue — and
// the exactly-once batch admission — happens synchronously in
// submission order before IngestAsync returns.
func (e *Engine) IngestAsync(streamName string, b *Batch) (<-chan error, error) {
	return e.pe.IngestAsync(streamName, b)
}

// Drain waits for all queued work, including trigger cascades, to
// finish.
func (e *Engine) Drain() error { return e.pe.Drain() }

// Query runs one ad-hoc SQL statement on a partition. Read-only
// statements are served from the snapshot read path — a consistent
// view pinned at the current commit boundary, off the partition
// scheduler queue — so inspection queries do not steal streaming
// throughput. Ad-hoc writes are rejected when command logging is
// enabled (they would not be logged and would vanish on recovery).
func (e *Engine) Query(partition int, sql string, params ...Value) (*QueryResult, error) {
	return e.pe.AdHoc(partition, sql, params...)
}

// ReadView is a pinned, transaction-consistent read-only snapshot of
// one partition, served off the partition loop.
type ReadView = pe.ReadView

// ReadView pins a read view on a partition at the current commit
// boundary without entering the partition's scheduler queue. The view
// never observes rows committed after the pin, nor any aborted
// transaction's rows. Close it when done.
func (e *Engine) ReadView(partition int) (*ReadView, error) { return e.pe.ReadView(partition) }

// Read pins a view, runs one read-only statement against it, and
// releases the view — the one-shot snapshot read.
func (e *Engine) Read(partition int, sql string, params ...Value) (*QueryResult, error) {
	return e.pe.Read(partition, sql, params...)
}

// Checkpoint writes a transaction-consistent snapshot of all
// partitions.
func (e *Engine) Checkpoint() error { return e.pe.Checkpoint() }

// Recover runs crash recovery per the configured mode; call before
// admitting traffic on a restarted engine.
func (e *Engine) Recover() error { return e.pe.Recover() }

// Stats returns engine counters.
func (e *Engine) Stats() Stats { return e.pe.Stats() }

// QueueDepth reports a partition's queued task count; an out-of-range
// partition is an error, not a panic.
func (e *Engine) QueueDepth(partition int) (int, error) { return e.pe.QueueDepth(partition) }

// TableInfo describes one catalog entry.
type TableInfo = pe.TableInfo

// Tables lists a partition's catalog (tables, streams, windows) in
// name order.
func (e *Engine) Tables(partition int) ([]TableInfo, error) { return e.pe.Tables(partition) }
