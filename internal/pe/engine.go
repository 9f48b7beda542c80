package pe

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sstore/internal/cluster"
	"sstore/internal/ee"
	"sstore/internal/netsim"
	"sstore/internal/recovery"
	"sstore/internal/storage"
	"sstore/internal/types"
	"sstore/internal/wal"
	"sstore/internal/workflow"
)

// Options configures an Engine. The zero value is a single-partition,
// no-logging, no-network-simulation engine suitable for tests and
// embedded use.
type Options struct {
	// Partitions is the number of execution sites; one core each
	// (§3.1). Defaults to 1.
	Partitions int
	// Workers, when > 1, enables dependency-aware intra-partition
	// parallelism: each partition's goroutine becomes a dispatcher
	// that pops a run of queued tasks and executes the bodies of
	// mutually non-conflicting TEs (by declared access sets; see
	// StoredProc.Access) concurrently on a pool of this many workers,
	// retiring them in admission order. Committed state, command-log
	// order, replay, and snapshot read views are identical to serial
	// execution; only the interleaving of TE bodies changes.
	// Procedures without a declared access set, conflicting TEs,
	// nested transactions, and TEs that can fire PE triggers fall back
	// to in-order serial execution. 0 or 1 keeps the classic serial
	// loop (the default).
	Workers int
	// ClientRTT is the simulated client↔engine round-trip latency
	// applied to Call (and to Ingest acknowledgement when used
	// synchronously). Zero disables the simulation.
	ClientRTT time.Duration
	// EEDispatch is the simulated PE→EE crossing cost applied per
	// ProcCtx.Query. Zero disables the simulation.
	EEDispatch time.Duration
	// Recovery selects the logging/recovery scheme (§3.2.5).
	Recovery recovery.Mode
	// LogPath is the command-log location, required when Recovery is
	// not ModeNone. The log is sharded one file per partition: an
	// existing directory holds <dir>/cmd-p<N>.log, any other path is
	// used as a file-name prefix (<path>.p<N>).
	LogPath string
	// LogPolicy selects commit durability (§3.1; Figure 9a runs
	// without group commit, i.e. SyncEachCommit). Under SyncGroup the
	// partitions execute ahead of the fsync and client-visible replies
	// wait for it (DESIGN.md §5).
	LogPolicy wal.SyncPolicy
	// LogSegmentBytes rotates each partition's log into sealed
	// segments of roughly this size, letting checkpoint truncation
	// age out whole files O(1) instead of rewriting the log. Zero
	// keeps one file per partition. See DESIGN.md §12.
	LogSegmentBytes int64
	// SnapshotDir is where checkpoints are written: each checkpoint is
	// a generation of one snapshot file per partition plus a copy of
	// every archive page file, committed by a manifest.
	SnapshotDir string
	// PartitionBy routes a batch to a partition; defaults to
	// partition 0. It is consulted both for ingested (border) batches
	// and for interior batches produced by committing TEs: an interior
	// batch bound to another partition is relocated there — rows, GC
	// refcount, and ledger entry travel with it — so a workflow fans
	// out across partitions instead of staying pinned to the partition
	// that ingested its border batch. All experiments partition
	// streams by a key every tuple of a batch shares (x-way for Linear
	// Road, §4.7); the function must be pure, since the same batch may
	// be routed more than once (ingest retry, recovery).
	PartitionBy func(streamName string, batch []types.Row) int
	// RouteCall routes an OLTP call to a partition; defaults to
	// partition 0.
	RouteCall func(sp string, params types.Row) int
	// Cluster, when non-nil, spreads the partition space across nodes
	// (DESIGN.md §13): this engine runs only the partitions the map
	// assigns to NodeID, under their global IDs, while PartitionBy and
	// RouteCall keep routing over the full 0..Cluster.Partitions()-1
	// space. Work routed to a partition another node owns either
	// travels through the partition transport (relocated interior
	// batches, exactly-once via the receiving node's ledger) or fails
	// with *WrongNodeError naming the owner (client requests, which the
	// server layer forwards). Cluster overrides Partitions.
	Cluster *cluster.Config
	// NodeID is this engine's node in the Cluster map; ignored when
	// Cluster is nil.
	NodeID int
	// CheckpointEveryBytes, when positive (and logging plus SnapshotDir
	// are configured), checkpoints automatically every time the command
	// log grows by this many bytes since the last checkpoint — and a
	// checkpoint compacts the log behind its stamp, so the knob bounds
	// steady-state log growth. The checkpoint runs from a background
	// goroutine: it quiesces every partition at a barrier, which a
	// partition goroutine could never initiate without deadlocking.
	CheckpointEveryBytes int64
	// MaxQueueDepth, when positive, bounds each partition's scheduler
	// queue at the border: client Calls and ingested batches are
	// rejected with an error matching ErrOverloaded that carries a
	// retry-after hint once the target partition's queue reaches the
	// bound. Interior work — PE-triggered TEs and batches routed
	// across partitions by committing TEs — is never blocked or
	// rejected, so cross-partition dispatch cannot deadlock even at
	// MaxQueueDepth=1. Zero means unbounded (the embedded-library
	// default).
	MaxQueueDepth int
	// ArchiveDir is the directory holding archive tables' page files
	// (one file per table per partition; see CREATE ARCHIVE TABLE).
	// Empty auto-creates a temporary directory that Close removes —
	// fine for tests and ephemeral runs; durable deployments point it
	// next to LogPath so recovery finds nothing it needs there anyway
	// (page files are rebuilt from checkpoint generations plus the
	// command log, never reopened in place).
	ArchiveDir string
	// ArchiveMemoryBudget bounds the total buffer-pool bytes archive
	// tables may keep resident, split evenly across the node's local
	// partitions. Archive state beyond the budget spills to its page
	// file and is read back through the pool on demand. Zero means a
	// small default per partition.
	ArchiveMemoryBudget int64
}

// Engine is a single-node S-Store instance: partitions, stored
// procedures, workflows, triggers, logging, and recovery. Setup
// methods (DDL, registration, deployment) must complete before traffic
// starts; execution methods are safe for concurrent use.
type Engine struct {
	opts  Options
	parts []*partition
	// nglobal is the cluster-wide partition count; equal to len(parts)
	// on a single-node engine. Routing functions map into [0, nglobal).
	nglobal int
	// byPid maps a global partition ID to its local partition; nil
	// entries are partitions other nodes own. part() is the accessor.
	byPid []*partition
	// transport delivers relocated interior batches to their target
	// partition: in-process on a single-node engine, via peers when a
	// cluster map splits the partition space (see transport.go).
	transport PartitionTransport
	// peers is the cluster connection set; nil on a single-node engine.
	peers *cluster.Peers

	procs     map[string]*StoredProc
	workflows map[string]*workflow.Workflow
	consumers map[string][]string // stream (lower-case) → PE-triggered SPs
	spInput   map[string]string   // sp → input stream (lower-case)
	// borderBy maps each border stream (lower-case) to its one
	// consuming border SP. DeployWorkflow populates it and rejects a
	// second border SP on the same stream.
	borderBy map[string]borderReg

	// logs is the sharded command log, one file per partition with a
	// shared global commit sequence; nil when logging is off.
	logs *wal.LogSet
	// idle counts queued plus in-flight tasks engine-wide; Drain
	// blocks on it reaching zero.
	idle *quiesce
	// stash, non-nil only while Recover runs, parks batches produced
	// by replayed TEs until their consumer's log record replays (see
	// replay.go).
	stash *replayStash
	// snapLSN is the commit-sequence stamp of the last snapshot
	// loaded; Recover re-arms the sequence past it so post-checkpoint
	// commits never reuse stamps the replay filter treats as
	// already-applied.
	snapLSN uint64

	peTriggersOn atomic.Bool
	loggingOn    atomic.Bool

	// overloaded counts border submissions rejected by the
	// MaxQueueDepth bound; surfaced through Stats.
	overloaded atomic.Uint64
	// handoffsRecv/handoffsDup count cross-node hand-offs this node
	// admitted and re-deliveries its ledger suppressed.
	handoffsRecv atomic.Uint64
	handoffsDup  atomic.Uint64
	// autoCkpts counts checkpoints taken by the CheckpointEveryBytes
	// policy; ckptStop/ckptDone bound its goroutine.
	autoCkpts atomic.Uint64
	ckptStop  chan struct{}
	ckptDone  chan struct{}

	// archDir resolves the archive page-file directory the partitions
	// share, once, on the first CREATE ARCHIVE TABLE anywhere; archTmp
	// is the directory Close removes when it was auto-created.
	archDir func() (string, error)
	archTmp string

	link     *netsim.Link
	boundary *netsim.Boundary

	closed bool
}

// NewEngine builds and starts an engine. With Options.Cluster set it
// becomes one node of a multi-node cluster: it runs only the
// partitions the map assigns to NodeID (under their global IDs, with
// a node-local command log covering exactly those shards) and opens
// peer connections for cross-node batch hand-off.
func NewEngine(opts Options) (*Engine, error) {
	var localPids []int
	if opts.Cluster != nil {
		if err := opts.Cluster.Validate(); err != nil {
			return nil, err
		}
		node, err := opts.Cluster.NodeByID(opts.NodeID)
		if err != nil {
			return nil, err
		}
		localPids = append(localPids, node.Partitions...)
		opts.Partitions = opts.Cluster.Partitions()
	} else {
		if opts.Partitions <= 0 {
			opts.Partitions = 1
		}
		for i := 0; i < opts.Partitions; i++ {
			localPids = append(localPids, i)
		}
	}
	if opts.Recovery != recovery.ModeNone && opts.LogPath == "" {
		return nil, fmt.Errorf("pe: recovery mode %v requires LogPath", opts.Recovery)
	}
	e := &Engine{
		opts:      opts,
		nglobal:   opts.Partitions,
		byPid:     make([]*partition, opts.Partitions),
		procs:     make(map[string]*StoredProc),
		workflows: make(map[string]*workflow.Workflow),
		consumers: make(map[string][]string),
		spInput:   make(map[string]string),
		borderBy:  make(map[string]borderReg),
		idle:      newQuiesce(),
	}
	e.archDir = sync.OnceValues(e.resolveArchiveDir)
	e.peTriggersOn.Store(true)
	e.loggingOn.Store(true)
	if opts.ClientRTT > 0 {
		e.link = &netsim.Link{RTT: opts.ClientRTT}
	}
	if opts.EEDispatch > 0 {
		e.boundary = &netsim.Boundary{Dispatch: opts.EEDispatch}
	}
	if opts.Recovery != recovery.ModeNone {
		ls, err := wal.OpenSet(wal.SetOptions{
			Path:         opts.LogPath,
			Partitions:   len(localPids),
			PartitionIDs: localPids,
			Policy:       opts.LogPolicy,
			SegmentBytes: opts.LogSegmentBytes,
		})
		if err != nil {
			return nil, err
		}
		e.logs = ls
	}
	for _, pid := range localPids {
		p := newPartition(pid, e)
		p.sched.track = e.idle
		p.sched.bound = opts.MaxQueueDepth
		p.cat.SetArchiveProvider(p.archiveSite)
		if opts.Workers > 1 {
			p.startWorkers(opts.Workers)
		}
		if e.logs != nil {
			p.attachLog(e.logs.Logger(pid), opts.LogPolicy)
		}
		e.parts = append(e.parts, p)
		e.byPid[pid] = p
	}
	if opts.Cluster != nil {
		ps, err := cluster.NewPeers(opts.Cluster, opts.NodeID)
		if err != nil {
			if e.logs != nil {
				//lint:allow errdrop -- best-effort cleanup; the peer-set error is what the caller needs
				e.logs.Close()
			}
			return nil, err
		}
		e.peers = ps
		e.transport = &clusterTransport{e: e, cfg: opts.Cluster, peers: ps}
	} else {
		e.transport = localTransport{e: e}
	}
	for _, p := range e.parts {
		go p.run()
	}
	if opts.CheckpointEveryBytes > 0 && e.logs != nil && opts.SnapshotDir != "" {
		e.ckptStop = make(chan struct{})
		e.ckptDone = make(chan struct{})
		go e.autoCheckpoint(opts.CheckpointEveryBytes)
	}
	return e, nil
}

// autoCheckpoint implements Options.CheckpointEveryBytes: poll the
// log's appended-byte counter and checkpoint whenever it has grown
// past the threshold since the last checkpoint (whose compaction then
// truncates the log behind the snapshot stamp). Errors are retried on
// the next tick — a transient failure (engine closing, disk pressure)
// must not kill the policy.
func (e *Engine) autoCheckpoint(every int64) {
	defer close(e.ckptDone)
	base := e.logs.Bytes()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-e.ckptStop:
			return
		case <-tick.C:
		}
		if cur := e.logs.Bytes(); cur-base >= uint64(every) {
			if err := e.Checkpoint(); err != nil {
				continue
			}
			e.autoCkpts.Add(1)
			base = e.logs.Bytes()
		}
	}
}

// Close drains and stops all partitions, stops the auto-checkpoint
// policy and peer connections, and closes the log.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if e.ckptStop != nil {
		close(e.ckptStop)
		<-e.ckptDone
	}
	if e.transport != nil {
		//lint:allow errdrop -- peer teardown; unacked hand-offs are re-fired by recovery
		e.transport.Close()
	}
	for _, p := range e.parts {
		p.sched.Close()
	}
	for _, p := range e.parts {
		<-p.done
	}
	firstErr := e.closeArchives()
	if e.logs != nil {
		if err := e.logs.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Partitions returns the cluster-wide partition count — the space
// PartitionBy and RouteCall route over. On a single-node engine this
// equals the local partition count.
func (e *Engine) Partitions() int { return e.nglobal }

// part returns the local partition for a global partition ID, or nil
// when the ID is out of range or another node owns it.
func (e *Engine) part(pid int) *partition {
	if pid < 0 || pid >= len(e.byPid) {
		return nil
	}
	return e.byPid[pid]
}

// --- Setup ---

// ExecDDL runs a DDL statement on every partition (each holds the full
// schema; data is partitioned, schema is replicated). Non-DDL
// statements are accepted as *setup state* — seed rows an application
// re-issues at every boot, like schema and triggers. They execute on
// every partition and are deliberately NOT command-logged: recovery
// replays the log against a freshly re-seeded engine, so a seed that
// is not re-issued at boot is lost. For durable runtime writes use a
// registered stored procedure (Call), which logs.
func (e *Engine) ExecDDL(ddl string) error { return e.ExecDDLOwned("", ddl) }

// ExecDDLOwned runs DDL attributed to a stored procedure; CREATE WINDOW
// executed this way makes owner the window's private owner (§3.2.2).
func (e *Engine) ExecDDLOwned(owner, ddl string) error {
	for _, p := range e.parts {
		if err := e.onPartition(p, func(p *partition) error {
			p.ddlMu.Lock()
			_, err := p.exec.Execute(ddl, nil, &ee.ExecCtx{SP: owner})
			p.ddlMu.Unlock()
			if err != nil {
				return err
			}
			p.invalidateReadPlans()
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// RegisterProc adds a stored procedure definition and compiles its
// declared statements on every partition, against the tables that
// exist now: register procedures after the DDL they use.
func (e *Engine) RegisterProc(sp *StoredProc) error {
	if sp.Name == "" || sp.Func == nil {
		return fmt.Errorf("pe: stored procedure needs a name and a body")
	}
	if _, dup := e.procs[sp.Name]; dup {
		return fmt.Errorf("pe: stored procedure %q already registered", sp.Name)
	}
	if len(sp.Stmts) > 0 {
		for _, p := range e.parts {
			if err := e.onPartition(p, func(p *partition) error {
				stmts := make([]*ee.Stmt, len(sp.Stmts))
				for i, text := range sp.Stmts {
					s, err := p.exec.Declare(text)
					if err != nil {
						return fmt.Errorf("pe: stored procedure %s statement %d: %w", sp.Name, i, err)
					}
					stmts[i] = s
				}
				p.stmts[sp.Name] = stmts
				return nil
			}); err != nil {
				return err
			}
		}
	}
	e.procs[sp.Name] = sp
	return nil
}

// AddEETrigger attaches an EE trigger on every partition (§3.2.3).
func (e *Engine) AddEETrigger(table string, stmts ...string) error {
	tr := &ee.Trigger{Table: table, Stmts: stmts}
	for _, p := range e.parts {
		if err := e.onPartition(p, func(p *partition) error {
			return p.exec.AddTrigger(tr)
		}); err != nil {
			return err
		}
	}
	return nil
}

// MaintainWindowAggregate registers an incrementally maintained
// aggregate (count/sum/avg/min/max over a column, or count over "*")
// on a window table, on every partition. Aggregate queries over the
// window that match a maintained aggregate read the stored accumulator
// instead of scanning, so trigger TEs stay O(1) in the window size
// (§4.3). With groupBy columns the aggregate (count, or sum over a
// BIGINT column) is kept per key, and GROUP BY queries over exactly
// those keys whose ORDER BY names every key read the groups: O(groups)
// instead of a scan. Like DDL, registration is part of application
// setup and must be re-issued at boot before recovery loads a
// snapshot.
func (e *Engine) MaintainWindowAggregate(table, fn, column string, groupBy ...string) error {
	f, err := storage.ParseAggFunc(fn)
	if err != nil {
		return err
	}
	for _, p := range e.parts {
		if err := e.onPartition(p, func(p *partition) error {
			p.ddlMu.Lock()
			defer p.ddlMu.Unlock()
			t, err := p.cat.Get(table)
			if err != nil {
				return err
			}
			col := storage.AggStar
			if column != "" && column != "*" {
				ord, ok := t.Schema().Index(column)
				if !ok {
					return fmt.Errorf("pe: table %s has no column %s", table, column)
				}
				col = ord
			}
			keys := make([]int, len(groupBy))
			for i, name := range groupBy {
				ord, ok := t.Schema().Index(name)
				if !ok {
					return fmt.Errorf("pe: table %s has no column %s", table, name)
				}
				keys[i] = ord
			}
			if err := t.MaintainAggregate(f, col, keys...); err != nil {
				return err
			}
			// Cached plans compiled before registration still scan;
			// recompile so they pick up the stored accumulators — the
			// off-loop read-plan cache included.
			p.exec.InvalidatePlans()
			p.invalidateReadPlans()
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// DeployWorkflow wires a workflow's edges into PE triggers: each
// (stream → consumer SP) pair becomes a trigger, border SPs are marked
// for command logging, and consumed streams are protected from EE-level
// GC. Every SP must already be registered and every stream table must
// exist.
func (e *Engine) DeployWorkflow(w *workflow.Workflow) error {
	if _, dup := e.workflows[w.Name]; dup {
		return fmt.Errorf("pe: workflow %q already deployed", w.Name)
	}
	// Border streams must have exactly one consuming border SP across
	// ALL deployed workflows: ingest routes a batch to the stream's
	// border SP, and two candidates would make the winner
	// nondeterministic per process. Check before mutating any
	// registration state so a rejected deploy leaves no trace.
	newBorder := make(map[string]borderReg)
	for _, sp := range w.Border() {
		n, ok := w.Node(sp)
		if !ok {
			continue
		}
		key := strings.ToLower(n.Input)
		if prev, dup := e.borderBy[key]; dup {
			return fmt.Errorf("pe: stream %q is consumed by border SP %s (workflow %s) and border SP %s (workflow %s); a border stream must have exactly one consumer",
				n.Input, prev.sp, prev.workflow, sp, w.Name)
		}
		if prev, dup := newBorder[key]; dup {
			return fmt.Errorf("pe: stream %q is consumed by border SP %s and border SP %s in workflow %s; a border stream must have exactly one consumer",
				n.Input, prev.sp, sp, w.Name)
		}
		newBorder[key] = borderReg{sp: sp, workflow: w.Name}
	}
	for _, n := range w.Nodes() {
		if _, ok := e.procs[n.SP]; !ok {
			return fmt.Errorf("pe: workflow %s: stored procedure %s not registered", w.Name, n.SP)
		}
		input := strings.ToLower(n.Input)
		if prev, dup := e.spInput[n.SP]; dup && prev != input {
			return fmt.Errorf("pe: SP %s already consumes %s", n.SP, prev)
		}
		e.spInput[n.SP] = input
	}
	border := make(map[string]bool)
	for _, sp := range w.Border() {
		border[sp] = true
	}
	for _, n := range w.Nodes() {
		input := strings.ToLower(n.Input)
		if border[n.SP] {
			// Border streams are fed by Ingest; exactly one consumer
			// keeps batch GC unambiguous.
			if cs := w.Consumers(n.Input); len(cs) != 1 {
				return fmt.Errorf("pe: border stream %s must have exactly one consumer, has %v", n.Input, cs)
			}
			continue
		}
		// Interior edge: register the PE trigger.
		already := false
		for _, c := range e.consumers[input] {
			if c == n.SP {
				already = true
			}
		}
		if !already {
			e.consumers[input] = append(e.consumers[input], n.SP)
		}
	}
	// Protect all consumed streams (border and interior) from EE GC;
	// the PE garbage-collects after the consuming TE commits.
	for _, n := range w.Nodes() {
		input := n.Input
		for _, p := range e.parts {
			if err := e.onPartition(p, func(p *partition) error {
				p.exec.SetPEConsumed(input)
				return nil
			}); err != nil {
				return err
			}
		}
	}
	for key, reg := range newBorder {
		e.borderBy[key] = reg
	}
	e.workflows[w.Name] = w
	return nil
}

// borderReg records which border SP (and workflow) consumes a border
// stream.
type borderReg struct {
	sp       string
	workflow string
}

// wrapPartition maps an arbitrary routing result into [0, n), wrapping
// negatives, so a PartitionBy function never routes out of range.
func wrapPartition(i, n int) int { return ((i % n) + n) % n }

// onPartition runs fn inside the partition goroutine and waits.
func (e *Engine) onPartition(p *partition, fn func(p *partition) error) error {
	reply := make(chan callResult, 1)
	t := getTask()
	t.control = fn
	t.reply = reply
	if !p.sched.PushBack(t) {
		putTask(t)
		return fmt.Errorf("pe: engine closed")
	}
	return (<-reply).err
}

// Drain waits until every partition's queue is empty and the last task
// has finished — including TEs spawned by PE triggers and batches
// handed off across partitions — and then until the command log is
// durable at everything appended, so every reply parked on a release
// queue has been sent. The wait is event-driven: it blocks on the
// engine-wide outstanding-work counter reaching zero (a committing TE
// enqueues its children before releasing its own slot, so the counter
// cannot dip to zero mid-workflow) and burns no CPU, unlike a
// queue-polling barrier loop. It reports a failed log sync.
func (e *Engine) Drain() error {
	e.idle.wait()
	if e.logs != nil {
		return e.logs.WaitDurable()
	}
	return nil
}

// SPExecutions returns the number of committed TEs of one stored
// procedure across all partitions. Like Stats, it reads the counters
// without synchronization; values are exact after Drain and
// monitoring-grade while traffic runs (the benchmark drivers sample
// deltas over a window).
func (e *Engine) SPExecutions(sp string) uint64 {
	var n uint64
	for _, p := range e.parts {
		n += p.execBySP[sp]
	}
	return n
}

// TriggerErr returns (and clears) the most recent error from a
// PE-triggered TE, which has no caller to report to. Nil when every
// triggered TE succeeded. Call after Drain. Clearing affects only the
// remembered error; Stats.TriggerErrors counts every such failure
// cumulatively.
func (e *Engine) TriggerErr() error {
	for _, p := range e.parts {
		var err error
		_ = e.onPartition(p, func(p *partition) error {
			err = p.lastTriggerErr
			p.lastTriggerErr = nil
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates engine counters.
type Stats struct {
	Executed    uint64
	Aborted     uint64
	LogAppends  uint64
	LogSyncs    uint64
	ClientTrips uint64
	EECrossings uint64
	// Overloaded counts border submissions (Calls and ingested
	// batches) rejected by the MaxQueueDepth backpressure bound.
	Overloaded uint64
	// TriggerErrors counts reply-less TE failures (PE-triggered
	// interior TEs and trigger-dispatch misses) cumulatively, across
	// all partitions; unlike TriggerErr it is never cleared.
	TriggerErrors uint64
	// TasksParallel and TasksSerial split dispatcher-executed tasks
	// by path under Options.Workers: wave members whose bodies ran
	// concurrently vs serial fallbacks (conflicting, undeclared,
	// trigger-producing, nested, control, or lone tasks). Both stay
	// zero on a classic serial engine.
	TasksParallel uint64
	TasksSerial   uint64
	// PeakConcurrent is the maximum number of TE bodies any partition
	// had in flight at once (1 when never parallel).
	PeakConcurrent int
	// HandoffsSent/HandoffsRecv/HandoffsDup count cross-node batch
	// hand-offs: sent to peers, admitted from peers, and re-deliveries
	// suppressed by this node's exactly-once ledger. HandoffsPending is
	// the sends not yet acknowledged by their receiving node — a
	// cluster is quiescent only when every node drains AND reports zero
	// pending. All zero on a single-node engine.
	HandoffsSent    uint64
	HandoffsRecv    uint64
	HandoffsDup     uint64
	HandoffsPending int
	// AutoCheckpoints counts checkpoints taken by the
	// CheckpointEveryBytes policy.
	AutoCheckpoints uint64
}

// Stats returns a snapshot of engine counters. Executed/Aborted are
// read without synchronization while traffic may be running; treat
// them as monitoring approximations (exact after Drain).
func (e *Engine) Stats() Stats {
	var s Stats
	for _, p := range e.parts {
		s.Executed += p.executed
		s.Aborted += p.aborted
		s.TriggerErrors += p.triggerErrs.Load()
		s.TasksParallel += p.tasksParallel.Load()
		s.TasksSerial += p.tasksSerial.Load()
		if pc := int(p.peakConcurrent.Load()); pc > s.PeakConcurrent {
			s.PeakConcurrent = pc
		}
	}
	s.Overloaded = e.overloaded.Load()
	s.HandoffsSent, s.HandoffsRecv, s.HandoffsDup, s.HandoffsPending = e.HandoffStats()
	s.AutoCheckpoints = e.autoCkpts.Load()
	if e.logs != nil {
		s.LogAppends, s.LogSyncs = e.logs.Stats()
	}
	if e.link != nil {
		s.ClientTrips = e.link.Trips()
	}
	if e.boundary != nil {
		s.EECrossings = e.boundary.Crossings()
	}
	return s
}

// --- Checkpoint & recovery ---

// Checkpoint quiesces all partitions and writes a transaction-
// consistent checkpoint generation stamped with the current log
// position (§3.1): each partition's share (partition.checkpoint), then
// the manifest that commits the generation.
func (e *Engine) Checkpoint() error {
	if e.opts.SnapshotDir == "" {
		return fmt.Errorf("pe: Checkpoint requires SnapshotDir")
	}
	release := make(chan struct{})
	type readyPart struct {
		p   *partition
		err chan error
	}
	ready := make(chan readyPart, len(e.parts))
	// Park every partition at a barrier so no transaction is
	// in flight while we read catalogs.
	for _, p := range e.parts {
		errCh := make(chan error, 1)
		t := getTask()
		t.control = func(p *partition) error {
			ready <- readyPart{p: p, err: errCh}
			<-release
			return <-errCh
		}
		if !p.sched.PushBack(t) {
			putTask(t)
			close(release)
			return fmt.Errorf("pe: engine closed")
		}
	}
	parked := make([]readyPart, 0, len(e.parts))
	for len(parked) < len(e.parts) {
		parked = append(parked, <-ready)
	}
	// With every partition parked, the global commit sequence is the
	// snapshot stamp: every record at or below it committed before
	// the quiesce and is reflected in the partition snapshots.
	var lastLSN uint64
	if e.logs != nil {
		lastLSN = e.logs.LastSeq()
	}
	// Ground batches traveling inside queued carrying tasks before
	// cutting snapshots: a TE that committed behind another
	// partition's barrier may have relocated its output batch into a
	// queue, where no table snapshot would see it — and its log
	// record, stamped at or below lastLSN, is about to be compacted
	// away. Grounding puts the rows into the destination's stream
	// table so the snapshot covers them. A grounding failure aborts
	// the checkpoint before any snapshot is written: stamping the
	// snapshots without the batch would make it unrecoverable.
	var groundErr error
	for _, rp := range parked {
		if err := rp.p.groundQueuedBatches(); err != nil && groundErr == nil {
			groundErr = err
		}
	}
	if groundErr != nil {
		for _, rp := range parked {
			rp.err <- groundErr
		}
		close(release)
		return groundErr
	}
	// Snapshots are written under generation names and committed by
	// the manifest afterwards: a crash between per-partition writes
	// leaves the previous generation intact and consistent, so
	// recovery can never load partitions at mixed stamps.
	var firstErr error
	for _, rp := range parked {
		err := rp.p.checkpoint(e.opts.SnapshotDir, lastLSN)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		rp.err <- err
	}
	if firstErr == nil {
		firstErr = wal.WriteSnapshotManifest(e.opts.SnapshotDir, lastLSN)
	}
	// With the generation committed, records at or below the stamp
	// can never replay; truncate each partition's log against it
	// while the engine is still quiesced, and drop superseded
	// snapshot generations.
	if firstErr == nil && e.logs != nil {
		firstErr = e.logs.CompactBefore(lastLSN)
	}
	if firstErr == nil {
		cleanupGenerations(e.opts.SnapshotDir, lastLSN)
	}
	close(release)
	return firstErr
}
