// Package analysis is the engine's invariant suite: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// surface (the container image builds offline, so the x/tools module is
// unavailable) plus seven engine-specific analyzers. Six lock down the
// invariants S-Store's recovery guarantee rests on; the seventh keeps
// internal code from outliving its readers:
//
//   - replaydet: code reachable from the replay/commit/trigger entry
//     points must be deterministic — re-execution of the command log
//     only reproduces state if the live schedule computed it
//     deterministically in the first place (PAPER.md §4).
//   - lockorder: the documented ddlMu → readMu → views.mu → table-latch
//     acquisition order, with the latch as a leaf lock.
//   - hotalloc: functions annotated //sstore:nomalloc must not contain
//     constructs that force heap allocations.
//   - errdrop: engine APIs whose dropped errors were past bugs must
//     have their error results consumed.
//   - allocgate: every //sstore:nomalloc function must be covered by an
//     //sstore:allocgate-marked testing.AllocsPerRun gate (and vice
//     versa), so the static annotation and the runtime budget can't
//     drift apart.
//   - replyexit: a TE's reply value may be sent only from the
//     partition's release path, so pipelined group commit can hold
//     every reply until the log is durable.
//   - unused: every declaration of an internal package has a reader
//     in the module's non-test code.
//
// Annotation conventions (documented in DESIGN.md §10):
//
//	//sstore:deterministic   — marks a replay-determinism entry point.
//	//sstore:nomalloc        — marks a zero-allocation hot-path function.
//	//sstore:allocgate Name  — in a _test.go file, marks the AllocsPerRun
//	                           gate covering nomalloc function Name.
//	//lint:allow <analyzer> -- <reason>
//	                         — suppresses that analyzer's diagnostics on
//	                           the same or the following source line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Suite is the full invariant suite: what cmd/sstore-lint runs by
// default and TestSelfLint runs over the repository.
var Suite = []*Analyzer{ReplayDet, LockOrder, HotAlloc, ErrDrop, AllocGate, ReplyExit, Unused}

// Analyzer is one invariant checker. Unlike x/tools analyzers, Run sees
// the whole program at once: whole-program call graphs are the natural
// shape for replay-reachability and lock-order summaries, and the repo
// is small enough that per-package fact plumbing would be pure ceremony.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass hands an analyzer the loaded program and a diagnostic sink.
type Pass struct {
	Fset *token.FileSet
	// Pkgs are the packages under analysis (the module's packages, or a
	// fixture tree), in a stable order.
	Pkgs []*Package
	// Graph is the static call graph over Pkgs (see callgraph.go).
	Graph *CallGraph
	// Ann indexes //sstore: annotations and //lint:allow suppressions.
	Ann *Annotations

	analyzer string
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.analyzer,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath string
	Dir     string
	Types   *types.Package
	Info    *types.Info
	Syntax  []*ast.File
	// TestSyntax holds the package's _test.go files, parsed but not
	// type-checked; the allocgate analyzer scans them for gate markers.
	TestSyntax []*ast.File
	// Module reports whether the package belongs to the module under
	// analysis (false for dependencies, which are loaded API-only).
	Module bool
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run executes the analyzers over a loaded program, returning the
// surviving diagnostics sorted by position. Diagnostics on a line (or
// the line immediately after) a matching //lint:allow comment are
// dropped.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:     prog.Fset,
			Pkgs:     prog.Pkgs,
			Graph:    prog.Graph,
			Ann:      prog.Ann,
			analyzer: a.Name,
			report: func(d Diagnostic) {
				diags = append(diags, d)
			},
		}
		a.Run(pass)
	}
	kept := diags[:0]
	for _, d := range diags {
		if prog.Ann.Suppressed(d.Analyzer, d.Pos) {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return kept
}

// Program is a loaded module (or fixture tree) ready for analysis.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Graph *CallGraph
	Ann   *Annotations
}

// funcDisplayName renders a *types.Func as pkg.Name or pkg.(Recv).Name
// relative to the module, for diagnostics.
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		if i := strings.LastIndex(fn.Pkg().Path(), "/"); i >= 0 {
			return fn.Pkg().Path()[i+1:] + "." + name
		}
		return fn.Pkg().Path() + "." + name
	}
	return name
}
