package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// LockOrderConfig ranks the engine's named locks. Locks must be
// acquired in strictly increasing rank; acquiring a rank less than or
// equal to any held rank — directly or anywhere in the called
// function's transitive acquire set — is reported. Leaf ranks must not
// hold *any* tracked lock operation beneath them, ranked or not.
type LockOrderConfig struct {
	// Ranks maps "pkgpath.Type.field" lock identities to ranks.
	Ranks map[string]int
	// Leaf marks ranks under which no further lock may be taken.
	Leaf map[int]bool
	// OrderDoc names the documented order for diagnostics.
	OrderDoc string
}

// EngineLockOrder is the repo's documented acquisition order
// (internal/pe/readview.go): ddlMu → readMu → Executor.mu → Views.mu →
// Table.latch. Executor.mu is the executor's plan-cache lock, taken by
// worker goroutines preparing statements during a parallel wave; it is
// a leaf (its critical sections are map operations only), ranked under
// ddlMu because runtime DDL holds ddlMu while invalidating the cache.
// The table latch is the storage.Views read latch held across one
// statement's scan; taking anything under it other than the buffer
// pool's mutex can deadlock against the copy-on-write detach barrier.
// It stopped being a leaf when archive tables arrived: their row reads
// and writes pin pages, so bufferpool.Pool.mu is acquired under the
// latch. Pool.mu is the new leaf — its critical sections touch only
// the frame table and LRU state (a victim's write-back does file I/O
// under Pool.mu, but never takes another lock).
//
// The cluster transport's locks rank after the table latch: Peers.mu
// (the peer registry) may be taken from the dispatch path while no
// engine lock is held, and each peer.mu (one peer's hand-off queue and
// current connection) nests strictly inside it. Under peer.mu a
// hand-off is queued on the connection, which takes wire.Conn.mu: a
// leaf whose critical sections only encode frames into the write
// buffer and touch the pending table. No network write happens under
// either — the connection's own writer goroutine writes with no lock
// held — and completion callbacks run with no lock held, so a callback
// that takes peer.mu (created under it) is reported.
//
// The command log's locks come last. wal.Logger.syncMu serializes a
// whole group sync (and compaction and close) and is taken before the
// logger's append mutex Logger.mu, which is a leaf: appends, flushes
// and the bookkeeping of a sync happen under it, the fsync does not.
// pe.releaseQueue.mu, the partition's reply release queue, is a leaf
// too: only slice operations happen under it, and replies are sent
// after it is released — the log calls it back with no lock held.
var EngineLockOrder = LockOrderConfig{
	Ranks: map[string]int{
		"sstore/internal/pe.partition.ddlMu":  1,
		"sstore/internal/pe.partition.readMu": 2,
		"sstore/internal/ee.Executor.mu":      3,
		"sstore/internal/storage.Views.mu":    4,
		"sstore/internal/storage.Table.latch": 5,
		"sstore/internal/cluster.Peers.mu":    6,
		"sstore/internal/cluster.peer.mu":     7,
		"sstore/internal/wire.Conn.mu":        8,
		"sstore/internal/bufferpool.Pool.mu":  9,
		"sstore/internal/wal.Logger.syncMu":   10,
		"sstore/internal/wal.Logger.mu":       11,
		"sstore/internal/pe.releaseQueue.mu":  12,
	},
	Leaf:     map[int]bool{3: true, 8: true, 9: true, 11: true, 12: true},
	OrderDoc: "ddlMu → readMu → Executor.mu → Views.mu → Table.latch → Peers.mu → peer.mu → Conn.mu → Pool.mu → Logger.syncMu → Logger.mu → releaseQueue.mu",
}

// LockOrder enforces EngineLockOrder over the module.
var LockOrder = NewLockOrder(EngineLockOrder)

// NewLockOrder builds a lock-order analyzer for a rank configuration
// (fixtures use their own).
func NewLockOrder(cfg LockOrderConfig) *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "enforces the documented lock acquisition order " + cfg.OrderDoc,
		Run:  func(pass *Pass) { runLockOrder(pass, cfg) },
	}
}

// lockOp is one syntactic lock operation.
type lockOp struct {
	key     string // lock identity ("pkg.Type.field" or a local description)
	rank    int    // 0 when unranked
	method  string // Lock, RLock, Unlock, RUnlock, TryLock, TryRLock
	acquire bool
}

func runLockOrder(pass *Pass, cfg LockOrderConfig) {
	// Pass 1: transitive may-acquire rank summaries per function.
	direct := make(map[*types.Func]map[int]bool)
	for fn, node := range pass.Graph.Nodes {
		ranks := make(map[int]bool)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if op, ok := lockOpOf(node.Pkg.Info, call); ok && op.acquire {
					if r := cfg.rankFor(op.key); r != 0 {
						ranks[r] = true
					}
				}
			}
			return true
		})
		direct[fn] = ranks
	}
	summary := make(map[*types.Func]map[int]bool, len(direct))
	for fn, ranks := range direct {
		s := make(map[int]bool, len(ranks))
		for r := range ranks {
			s[r] = true
		}
		summary[fn] = s
	}
	for changed := true; changed; {
		changed = false
		for fn, node := range pass.Graph.Nodes {
			s := summary[fn]
			for _, e := range node.Callees {
				for r := range summary[e.Callee] {
					if !s[r] {
						s[r] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 2: abstract interpretation of each function's lock state.
	var fns []*types.Func
	for fn := range pass.Graph.Nodes {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	for _, fn := range fns {
		node := pass.Graph.Nodes[fn]
		sc := &lockScanner{pass: pass, cfg: cfg, info: node.Pkg.Info, summary: summary}
		sc.scanStmts(node.Decl.Body.List, map[string]lockOp{})
	}
}

type lockScanner struct {
	pass    *Pass
	cfg     LockOrderConfig
	info    *types.Info
	summary map[*types.Func]map[int]bool
}

// scanStmts walks a statement list tracking the held-lock set; branch
// arms are scanned with copies and merged by union (conservative).
func (s *lockScanner) scanStmts(stmts []ast.Stmt, held map[string]lockOp) map[string]lockOp {
	for _, st := range stmts {
		held = s.scanStmt(st, held)
	}
	return held
}

func copyHeld(held map[string]lockOp) map[string]lockOp {
	c := make(map[string]lockOp, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func mergeHeld(a, b map[string]lockOp) map[string]lockOp {
	for k, v := range b {
		a[k] = v
	}
	return a
}

func (s *lockScanner) scanStmt(st ast.Stmt, held map[string]lockOp) map[string]lockOp {
	switch st := st.(type) {
	case nil:
		return held
	case *ast.BlockStmt:
		return s.scanStmts(st.List, held)
	case *ast.IfStmt:
		held = s.scanStmt(st.Init, held)
		s.scanExpr(st.Cond, held)
		after := s.scanStmts(st.Body.List, copyHeld(held))
		if st.Else != nil {
			return mergeHeld(after, s.scanStmt(st.Else, copyHeld(held)))
		}
		return mergeHeld(after, held)
	case *ast.ForStmt:
		held = s.scanStmt(st.Init, held)
		s.scanExpr(st.Cond, held)
		after := s.scanStmts(st.Body.List, copyHeld(held))
		s.scanStmt(st.Post, copyHeld(after))
		return mergeHeld(after, held)
	case *ast.RangeStmt:
		s.scanExpr(st.X, held)
		return mergeHeld(s.scanStmts(st.Body.List, copyHeld(held)), held)
	case *ast.SwitchStmt:
		held = s.scanStmt(st.Init, held)
		s.scanExpr(st.Tag, held)
		out := copyHeld(held)
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				out = mergeHeld(out, s.scanStmts(cc.Body, copyHeld(held)))
			}
		}
		return out
	case *ast.TypeSwitchStmt:
		held = s.scanStmt(st.Init, held)
		out := copyHeld(held)
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				out = mergeHeld(out, s.scanStmts(cc.Body, copyHeld(held)))
			}
		}
		return out
	case *ast.SelectStmt:
		out := copyHeld(held)
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				out = mergeHeld(out, s.scanStmts(cc.Body, copyHeld(held)))
			}
		}
		return out
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to function exit, which
		// is the default in our model: simply don't release. Any other
		// deferred call is scanned for acquisitions under the current
		// held set.
		if op, ok := s.opOf(st.Call); ok {
			if op.acquire {
				return s.apply(op, st.Call, held)
			}
			return held
		}
		s.scanExpr(st.Call, held)
		return held
	case *ast.GoStmt:
		// A spawned goroutine starts with an empty lock set.
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.scanStmts(fl.Body.List, map[string]lockOp{})
		}
		return held
	case *ast.ExprStmt:
		return s.scanExprStmt(st.X, held)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			held = s.scanExprStmt(e, held)
		}
		for _, e := range st.Lhs {
			s.scanExpr(e, held)
		}
		return held
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.scanExpr(e, held)
		}
		return held
	case *ast.LabeledStmt:
		return s.scanStmt(st.Stmt, held)
	default:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				s.scanExpr(e, held)
				return false
			}
			return true
		})
		return held
	}
}

// scanExprStmt handles an expression in statement position, where lock
// operations take effect on the held set.
func (s *lockScanner) scanExprStmt(e ast.Expr, held map[string]lockOp) map[string]lockOp {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if op, ok := s.opOf(call); ok {
			return s.apply(op, call, held)
		}
	}
	s.scanExpr(e, held)
	return held
}

// scanExpr reports call-site violations inside an expression without
// changing the held set (nested calls, closures).
func (s *lockScanner) scanExpr(e ast.Expr, held map[string]lockOp) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures are scanned under the current held set: the
			// engine's closures (onPartition thunks, ForEachQueued
			// callbacks) run synchronously under their creator.
			s.scanStmts(n.Body.List, copyHeld(held))
			return false
		case *ast.CallExpr:
			if op, ok := s.opOf(n); ok {
				if op.acquire {
					s.apply(op, n, copyHeld(held))
				}
				return true
			}
			s.checkCall(n, held)
		}
		return true
	})
}

// apply checks one lock operation against the held set and updates it.
func (s *lockScanner) apply(op lockOp, call *ast.CallExpr, held map[string]lockOp) map[string]lockOp {
	if !op.acquire {
		delete(held, op.key)
		return held
	}
	for _, h := range sortedHeld(held) {
		switch {
		case h.rank != 0 && s.cfg.Leaf[h.rank]:
			s.pass.Reportf(call.Lparen, "%s of %s while holding leaf lock %s; nothing may be acquired under it",
				op.method, op.key, h.key)
		case op.rank != 0 && h.rank != 0 && op.rank <= h.rank:
			s.pass.Reportf(call.Lparen, "%s of %s (rank %d) while holding %s (rank %d) violates the lock order %s",
				op.method, op.key, op.rank, h.key, h.rank, s.cfg.OrderDoc)
		}
	}
	held[op.key] = op
	return held
}

// checkCall flags calls whose transitive acquire set conflicts with
// the locks currently held.
func (s *lockScanner) checkCall(call *ast.CallExpr, held map[string]lockOp) {
	if len(held) == 0 {
		return
	}
	callee, _ := resolveCallee(s.info, call)
	if callee == nil {
		return
	}
	acq := s.summary[callee]
	if len(acq) == 0 {
		return
	}
	var ranks []int
	for r := range acq {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, h := range sortedHeld(held) {
		if h.rank == 0 {
			continue
		}
		for _, r := range ranks {
			if r <= h.rank || s.cfg.Leaf[h.rank] {
				s.pass.Reportf(call.Lparen, "call to %s may acquire a rank-%d lock while holding %s (rank %d); order is %s",
					funcDisplayName(callee), r, h.key, h.rank, s.cfg.OrderDoc)
				break
			}
		}
	}
}

func sortedHeld(held map[string]lockOp) []lockOp {
	ops := make([]lockOp, 0, len(held))
	for _, op := range held {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].key < ops[j].key })
	return ops
}

// lockOpOf recognizes sync.Mutex/RWMutex method calls and identifies
// the lock instance.
func lockOpOf(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	method := sel.Sel.Name
	var acquire bool
	switch method {
	case "Lock", "RLock", "TryLock", "TryRLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return lockOp{}, false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return lockOp{}, false
	}
	m, _ := selection.Obj().(*types.Func)
	if m == nil || m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	return lockOp{key: lockKeyOf(info, sel.X), method: method, acquire: acquire}, true
}

// lockKeyOf renders a lock instance identity. Struct fields become
// "pkgpath.Type.field" (the rankable form); everything else gets a
// descriptive unranked key.
func lockKeyOf(info *types.Info, x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		base := info.TypeOf(x.X)
		if base == nil {
			break
		}
		if p, ok := base.(*types.Pointer); ok {
			base = p.Elem()
		}
		if named, ok := base.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name
		}
	case *ast.Ident:
		if t := info.TypeOf(x); t != nil {
			// An embedded mutex promoted to a named type's method set.
			base := t
			if p, ok := base.(*types.Pointer); ok {
				base = p.Elem()
			}
			if named, ok := base.(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + ".<embedded>"
			}
		}
		return "local " + x.Name
	}
	return "<expr>"
}

// rankFor resolves a key's rank (0 = unranked) against a config.
func (cfg LockOrderConfig) rankFor(key string) int { return cfg.Ranks[key] }

// opOf recognizes a lock-method call and attaches its configured rank.
func (s *lockScanner) opOf(call *ast.CallExpr) (lockOp, bool) {
	op, ok := lockOpOf(s.info, call)
	if !ok {
		return lockOp{}, false
	}
	op.rank = s.cfg.rankFor(op.key)
	return op, true
}
