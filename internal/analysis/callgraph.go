package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CallGraph is the static call graph over the module's function
// declarations. Resolution covers direct calls, concrete method calls,
// and interface method calls (linked to every module method that
// implements the interface). Function literals are not separate nodes:
// their bodies are attributed to the enclosing declaration, which
// matches how the engine uses closures (onPartition thunks, scheduler
// callbacks — invoked synchronously by the callee). Calls through
// function-typed values and fields (e.g. a stored procedure's Func)
// are invisible to the graph; the analyzers document that boundary.
type CallGraph struct {
	Nodes map[*types.Func]*CallNode
}

// CallNode is one declared module function.
type CallNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Callees holds one edge per distinct callee, with the position of
	// the first call site (for diagnostics that explain reachability).
	Callees []CallEdge
	seen    map[*types.Func]bool
}

// CallEdge is a call from a node to a resolved callee.
type CallEdge struct {
	Callee *types.Func
	Pos    token.Pos
}

type ifaceCall struct {
	method *types.Func
	pos    token.Pos
	from   *CallNode
}

func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*CallNode)}
	var ifaceCalls []ifaceCall
	var namedTypes []types.Type

	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
					namedTypes = append(namedTypes, named)
				}
			}
		}
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				g.Nodes[fn] = &CallNode{Fn: fn, Decl: fd, Pkg: pkg, seen: make(map[*types.Func]bool)}
			}
		}
	}

	for _, node := range g.Nodes {
		info := node.Pkg.Info
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, iface := resolveCallee(info, call)
			if callee == nil {
				return true
			}
			if iface {
				ifaceCalls = append(ifaceCalls, ifaceCall{method: callee, pos: call.Lparen, from: node})
				return true
			}
			node.addEdge(callee, call.Lparen)
			return true
		})
	}

	// Link each interface call to every module method implementing it.
	for _, ic := range ifaceCalls {
		ifaceType, ok := ic.method.Signature().Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, t := range namedTypes {
			impl := types.Implements(t, ifaceType) || types.Implements(types.NewPointer(t), ifaceType)
			if !impl {
				continue
			}
			sel := types.NewMethodSet(types.NewPointer(t)).Lookup(ic.method.Pkg(), ic.method.Name())
			if sel == nil {
				continue
			}
			if m, ok := sel.Obj().(*types.Func); ok && g.Nodes[m] != nil {
				ic.from.addEdge(m, ic.pos)
			}
		}
	}
	return g
}

func (n *CallNode) addEdge(callee *types.Func, pos token.Pos) {
	if n.seen[callee] {
		return
	}
	n.seen[callee] = true
	n.Callees = append(n.Callees, CallEdge{Callee: callee, Pos: pos})
}

// resolveCallee returns the called *types.Func (or nil for dynamic
// calls, builtins, and conversions) and whether the call goes through
// an interface method. A call of a generic function or of a method of
// a generic type resolves to its declaration (Origin), the object the
// call graph and the annotations are keyed by.
func resolveCallee(info *types.Info, call *ast.CallExpr) (fn *types.Func, iface bool) {
	fn, iface = resolveInstance(info, call)
	if fn != nil {
		fn = fn.Origin()
	}
	return fn, iface
}

func resolveInstance(info *types.Info, call *ast.CallExpr) (fn *types.Func, iface bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
		return fn, false
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil, false
			}
			m, _ := sel.Obj().(*types.Func)
			if m == nil {
				return nil, false
			}
			if recv := m.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				return m, true
			}
			return m, false
		}
		// No selection: qualified identifier (pkg.Func).
		fn, _ = info.Uses[fun.Sel].(*types.Func)
		return fn, false
	default:
		return nil, false
	}
}

// Reachable computes the set of nodes reachable from the entry
// functions, returning for each reached function the edge that first
// reached it (for "reachable from" diagnostics).
func (g *CallGraph) Reachable(entries []*types.Func) map[*types.Func]*types.Func {
	from := make(map[*types.Func]*types.Func, len(entries))
	queue := make([]*types.Func, 0, len(entries))
	for _, e := range entries {
		if g.Nodes[e] != nil {
			from[e] = nil
			queue = append(queue, e)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := g.Nodes[fn]
		if node == nil {
			continue
		}
		for _, edge := range node.Callees {
			if _, ok := from[edge.Callee]; ok || g.Nodes[edge.Callee] == nil {
				continue
			}
			from[edge.Callee] = fn
			queue = append(queue, edge.Callee)
		}
	}
	return from
}

// Chain renders the call chain from an entry point to fn, e.g.
// "pe.Engine.Recover → pe.partition.execute → ee.Executor.Execute".
func Chain(from map[*types.Func]*types.Func, fn *types.Func) string {
	var names []string
	for f := fn; f != nil; f = from[f] {
		names = append(names, funcDisplayName(f))
		if from[f] == nil {
			break
		}
	}
	// reverse
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " → "
		}
		out += n
	}
	return out
}
