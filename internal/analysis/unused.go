package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Unused reports declarations of internal packages that no non-test
// code in the module uses: package-level funcs, methods, vars, consts
// and types, and struct fields. Go's internal rule makes the module the
// complete set of readers of an internal/ package, so a declaration
// with no use there is dead. Module packages are type-checked without
// their _test.go files, so every recorded use is a non-test use. Uses
// from main packages and from public packages count; only non-main
// internal packages are reported. It needs the whole module loaded: a
// narrower pattern hides readers.
//
// A use inside the declaration itself does not count (recursion, or a
// type named only by its own methods). Exempt are:
//   - methods that make their type satisfy an interface of the loaded
//     program or of the standard-library API it imports;
//   - Is, As and Unwrap on error types, which errors.Is and errors.As
//     call through anonymous interfaces;
//   - exported methods and fields of the types a public package's
//     exported API reaches (by alias, signature or field type), since
//     readers outside the module can use them;
//   - struct fields that carry a tag.
//
// A declaration only tests need says so with
// //lint:allow unused -- test support: <importers>.
var Unused = &Analyzer{
	Name: "unused",
	Doc:  "reports internal declarations that no non-test code in the module uses",
	Run:  runUnused,
}

func runUnused(pass *Pass) {
	used := make(map[types.Object]bool)
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				markUses(pkg.Info, decl, used)
			}
		}
	}
	markInterfaceMethods(pass, used)
	markPublicAPI(pass, used)

	for _, pkg := range pass.Pkgs {
		if pkg.Types.Name() == "main" || !isInternalPath(pkg.PkgPath) {
			continue
		}
		for id, obj := range pkg.Info.Defs {
			if obj == nil || used[obj] || id.Name == "_" || id.Name == "init" {
				continue
			}
			if kind := unusedKind(obj, pkg.Types.Scope()); kind != "" {
				name := obj.Name()
				if fn, ok := obj.(*types.Func); ok {
					name = funcDisplayName(fn)
				}
				pass.Reportf(id.Pos(), "%s %s is unused", kind, name)
			}
		}
	}
}

// unusedKind names the kind of declaration the analyzer reports obj
// as, or "" for objects it does not judge: locals, parameters, imports,
// interface methods and embedded fields.
func unusedKind(obj types.Object, pkgScope *types.Scope) string {
	switch obj := obj.(type) {
	case *types.Func:
		if recv := obj.Signature().Recv(); recv != nil {
			if types.IsInterface(recv.Type()) {
				return "" // an interface method constrains, it is not a body
			}
			return "method"
		}
		return "func"
	case *types.Var:
		if obj.IsField() && !obj.Embedded() {
			return "field"
		}
		if obj.Parent() == pkgScope {
			return "var"
		}
	case *types.Const:
		if obj.Parent() == pkgScope {
			return "const"
		}
	case *types.TypeName:
		if obj.Parent() == pkgScope {
			return "type"
		}
	}
	return ""
}

// markUses records every object decl uses, except the objects decl
// itself declares (a function's own name, a method's receiver type, a
// type's own name), and marks tagged struct fields.
func markUses(info *types.Info, decl ast.Decl, used map[types.Object]bool) {
	self := make(map[types.Object]bool)
	switch decl := decl.(type) {
	case *ast.FuncDecl:
		fn := info.Defs[decl.Name].(*types.Func)
		self[fn] = true
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				self[named.Obj()] = true
			}
		}
	case *ast.GenDecl:
		for _, spec := range decl.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok {
				self[info.Defs[ts.Name]] = true
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && !self[obj] {
				used[originOf(obj)] = true
			}
		case *ast.Field:
			if n.Tag != nil {
				for _, id := range n.Names {
					used[info.Defs[id]] = true
				}
			}
		case *ast.CompositeLit:
			// An unkeyed struct literal sets every field.
			if st, ok := info.TypeOf(n).Underlying().(*types.Struct); ok && len(n.Elts) > 0 {
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := 0; i < st.NumFields(); i++ {
						used[st.Field(i).Origin()] = true
					}
				}
			}
		}
		return true
	})
}

// markInterfaceMethods marks the methods through which a module type
// satisfies a non-empty interface: one the module's code declares or
// spells out, one an imported package exports, or error. Is, As and
// Unwrap on a type that implements error are marked too.
func markInterfaceMethods(pass *Pass, used map[types.Object]bool) {
	// Interfaces keyed by their first method's name: a type is only
	// tested against interfaces whose first method it has.
	ifaces := make(map[string][]*types.Interface)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it.Method(0).Name()] = append(ifaces[it.Method(0).Name()], it)
		}
	}
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	addIface(errorIface)
	visited := make(map[*types.Package]bool)
	var addPackage func(p *types.Package, module bool)
	addPackage = func(p *types.Package, module bool) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && (module || tn.Exported()) {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addPackage(imp, false)
		}
	}
	for _, pkg := range pass.Pkgs {
		addPackage(pkg.Types, true)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}

	for _, pkg := range pass.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			methods := make(map[string]types.Object, mset.Len())
			for i := 0; i < mset.Len(); i++ {
				methods[mset.At(i).Obj().Name()] = originOf(mset.At(i).Obj())
			}
			for mname := range methods {
				for _, it := range ifaces[mname] {
					if types.Implements(ptr, it) {
						for j := 0; j < it.NumMethods(); j++ {
							used[methods[it.Method(j).Name()]] = true
						}
					}
				}
			}
			if types.Implements(ptr, errorIface) {
				for _, m := range [3]string{"Is", "As", "Unwrap"} {
					if obj := methods[m]; obj != nil {
						used[obj] = true
					}
				}
			}
		}
	}
}

// markPublicAPI marks what a package outside internal/ exposes to
// readers outside the module: the exported methods and fields of every
// type its exported declarations reach, through aliases, signatures
// and field types.
func markPublicAPI(pass *Pass, used map[types.Object]bool) {
	seen := make(map[types.Type]bool)
	var walk func(t types.Type)
	walk = func(t types.Type) {
		t = types.Unalias(t)
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					used[m.Origin()] = true
					walk(m.Type())
				}
			}
			walk(t.Underlying())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					used[f.Origin()] = true
					walk(f.Type())
				}
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case interface{ Elem() types.Type }: // pointer, slice, array, map, chan
			walk(t.Elem())
		}
	}
	for _, pkg := range pass.Pkgs {
		if pkg.Types.Name() == "main" || isInternalPath(pkg.PkgPath) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() {
				walk(obj.Type())
			}
		}
	}
}

// originOf maps an instantiated generic function, method or field to
// its declaration.
func originOf(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// isInternalPath reports whether an import path has an "internal"
// element, so that Go's internal rule confines its readers to the
// module.
func isInternalPath(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}
