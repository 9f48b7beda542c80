package analysis

import (
	"go/ast"
	"go/types"
)

// ReplyExitConfig names a channel element type ("pkgpath.Type") whose
// values only the listed functions ("pkgpath.Func" /
// "pkgpath.Type.Func") may send.
type ReplyExitConfig struct {
	Elem    string
	Senders map[string]bool
}

// EngineReplyExit pins the partition's single reply exit. Pipelined
// group commit (DESIGN.md §5) holds every TE outcome until the log is
// durable at the state it may reveal; that holds only while
// partition.replyTo and the release queue it parks replies on are the
// only senders of a callResult.
var EngineReplyExit = ReplyExitConfig{
	Elem: "sstore/internal/pe.callResult",
	Senders: map[string]bool{
		"sstore/internal/pe.partition.replyTo":    true,
		"sstore/internal/pe.releaseQueue.put":     true,
		"sstore/internal/pe.releaseQueue.release": true,
	},
}

// ReplyExit enforces EngineReplyExit over the module.
var ReplyExit = NewReplyExit(EngineReplyExit)

// NewReplyExit builds the analyzer for a config (fixtures use their
// own).
func NewReplyExit(cfg ReplyExitConfig) *Analyzer {
	return &Analyzer{
		Name: "replyexit",
		Doc:  "restricts sends of TE replies to the partition's release path",
		Run:  func(pass *Pass) { runReplyExit(pass, cfg) },
	}
}

func runReplyExit(pass *Pass, cfg ReplyExitConfig) {
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				// Function literals count as their enclosing declaration;
				// a send outside any function is never allowed.
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && cfg.Senders[gateKey(fn)] {
						continue
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if send, ok := n.(*ast.SendStmt); ok && chanElem(pkg.Info.TypeOf(send.Chan)) == cfg.Elem {
						pass.Reportf(send.Arrow, "send on chan %s outside its exit: a reply must leave through the release path", cfg.Elem)
					}
					return true
				})
			}
		}
	}
}

// chanElem renders a channel's element type as "pkgpath.Type", or ""
// when t is not a channel of a named type.
func chanElem(t types.Type) string {
	if t == nil {
		return ""
	}
	if ch, ok := t.Underlying().(*types.Chan); ok {
		if named, ok := ch.Elem().(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name()
		}
	}
	return ""
}
