package lint

// sharedstate is the static complement of the race detector for the
// native (real-goroutine) substrate. `go test -race` only sees the
// interleavings a run happens to produce; this rule reasons over all of
// them, conservatively: any struct field of a native type that is
// *mutable after construction* (written anywhere outside a New*/new*
// constructor) and is touched on a path reachable from the package's
// public operations must be protected — by sync/atomic (the field, or
// its element type for atomic arrays), by a mutex held in the accessing
// function, or by an explicit justified annotation. Fields written only
// during construction are published by the happens-before edge of
// handing the object to other goroutines and need no protection.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerSharedState returns the sharedstate rule for package native.
//
// A finding can be suppressed at the access site like any other, or —
// because one deliberately unsynchronized field (e.g. an injector
// installed before the object is shared) would otherwise need an allow
// at every access — by a //detlint:allow sharedstate comment on the
// field's declaration line, which covers every access of that field.
func AnalyzerSharedState() *Analyzer {
	return &Analyzer{
		Name: "sharedstate",
		Doc:  "mutable native struct fields reached by concurrent operations need sync/atomic, a held mutex, or a justified allow",
		Run:  runSharedState,
	}
}

func runSharedState(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range m.Pkgs {
		if !m.InScope(pkg, "native") && !m.isFixture(pkg, "sharedok", "sharedbad") {
			continue
		}
		out = append(out, sharedStateForPackage(m, pkg)...)
	}
	return out
}

// fieldFacts aggregates what the package does to one struct field.
type fieldFacts struct {
	v *types.Var
	// mutated reports any write outside constructors — to the field
	// itself or through an index/pointer into it.
	mutated bool
	// headerMutated reports the field itself reassigned outside
	// constructors. When only elements are written (w.cells[i] = v), the
	// slice header stays what the constructor built, and len/cap reads
	// of it are race-free.
	headerMutated bool
}

func sharedStateForPackage(m *Module, pkg *Package) []Diagnostic {
	g := m.CallGraph()
	facts := packageFieldFacts(g, pkg)
	if len(facts) == 0 {
		return nil
	}

	// Pass 2: entry points are the package's exported functions and
	// methods minus constructors; everything reachable from them runs on
	// caller goroutines after the object is shared.
	var roots []*FuncNode
	for _, n := range g.sortedNodes() {
		if n.Pkg == pkg && n.Decl.Name.IsExported() && !isConstructor(n.Decl) {
			roots = append(roots, n)
		}
	}
	reachable := g.Reachable(roots, nil)
	checked := make([]*FuncNode, 0, len(reachable))
	for n := range reachable {
		if n.Pkg == pkg {
			checked = append(checked, n)
		}
	}
	sort.Slice(checked, func(i, j int) bool { return checked[i].Fn.Pos() < checked[j].Fn.Pos() })

	// Pass 3: flag unprotected accesses to mutated fields. The guard
	// check is the lockset analysis: an access counts as protected only
	// when a mutex is held on every path reaching it (lockset.go), not
	// merely when a Lock call appears earlier in the source text.
	var out []Diagnostic
	for _, n := range checked {
		guards := guardedSelectors(pkg, n.Decl)
		exempt := headerReads(pkg, n.Decl.Body, facts)
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			sel, ok := x.(*ast.SelectorExpr)
			if !ok || exempt[sel] {
				return true
			}
			f := selectedField(pkg, sel)
			if f == nil {
				return true
			}
			ff := facts[f]
			if ff == nil || !ff.mutated {
				return true
			}
			if atomicField(f) || syncField(f) {
				return true
			}
			pos := m.Fset.Position(sel.Pos())
			if len(guards[sel]) > 0 {
				return true
			}
			if fieldDeclAllowed(m, f, "sharedstate") {
				return true
			}
			out = append(out, Diagnostic{
				Pos: pos,
				Msg: fmt.Sprintf("field %s of %s is written outside its constructor and accessed in %s without sync/atomic or a held mutex; concurrent operations can race on it",
					f.Name(), ownerTypeName(f), funcLabel(n)),
			})
			return true
		})
	}
	return out
}

// isConstructor reports a New*/new* function: it runs before the object
// is shared between goroutines.
func isConstructor(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new")
}

// packageFieldFacts classifies every struct field declared in pkg and
// marks the ones written outside constructors: sharedstate only cares
// about fields that change after the object is built.
func packageFieldFacts(g *CallGraph, pkg *Package) map[*types.Var]*fieldFacts {
	facts := make(map[*types.Var]*fieldFacts)
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			facts[f] = &fieldFacts{v: f}
		}
	}
	if len(facts) == 0 {
		return facts
	}
	for _, n := range g.sortedNodes() {
		if n.Pkg != pkg || isConstructor(n.Decl) {
			continue
		}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					return true
				}
				for _, l := range x.Lhs {
					if f, direct := fieldTarget(pkg, l); f != nil && facts[f] != nil {
						facts[f].mutated = true
						facts[f].headerMutated = facts[f].headerMutated || direct
					}
				}
			case *ast.IncDecStmt:
				if f, direct := fieldTarget(pkg, x.X); f != nil && facts[f] != nil {
					facts[f].mutated = true
					facts[f].headerMutated = facts[f].headerMutated || direct
				}
			}
			return true
		})
	}
	return facts
}

// fieldTarget resolves an assignment target to the struct field it
// writes, unwrapping index/star/paren chains. direct reports that the
// field itself is the target (header write), as opposed to an element
// or pointee reached through it.
func fieldTarget(pkg *Package, e ast.Expr) (f *types.Var, direct bool) {
	direct = true
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
			direct = false
		case *ast.StarExpr:
			e = x.X
			direct = false
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			return selectedField(pkg, x), direct
		default:
			return nil, false
		}
	}
}

// headerReads collects the selectors appearing only as the argument of a
// len/cap call on a field whose header is never reassigned outside a
// constructor: the constructor-built slice header is immutable, so its
// length is readable without synchronization even while elements churn.
func headerReads(pkg *Package, body *ast.BlockStmt, facts map[*types.Var]*fieldFacts) map[*ast.SelectorExpr]bool {
	out := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		b, ok := pkg.Info.Uses[id].(*types.Builtin)
		if !ok || (b.Name() != "len" && b.Name() != "cap") {
			return true
		}
		sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if f := selectedField(pkg, sel); f != nil && facts[f] != nil && !facts[f].headerMutated {
			out[sel] = true
		}
		return true
	})
	return out
}

// selectedField returns the field object a selector denotes, or nil.
func selectedField(pkg *Package, sel *ast.SelectorExpr) *types.Var {
	if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// atomicField reports whether a field's type — or, for slices/arrays of
// atomics, its element type — comes from sync/atomic.
func atomicField(f *types.Var) bool {
	return typeFromPkg(f.Type(), "sync/atomic")
}

// syncField reports whether the field is itself a synchronization
// primitive (sync.Mutex et al.) — touching it is how protection happens.
func syncField(f *types.Var) bool {
	return typeFromPkg(f.Type(), "sync")
}

// fieldDeclAllowed reports a justified //detlint:allow for the rule on
// the field's declaration line (or the line above it).
func fieldDeclAllowed(m *Module, f *types.Var, rule string) bool {
	p := m.Fset.Position(f.Pos())
	for _, a := range m.allows[p.Filename] {
		if !a.justified {
			continue
		}
		if a.line != p.Line && a.line != p.Line-1 {
			continue
		}
		if a.rules[rule] || a.rules["all"] {
			a.used = true
			return true
		}
	}
	return false
}

// ownerTypeName renders the declaring struct type of a field as
// pkgname.Type (best effort: the field's parent scope is the struct).
func ownerTypeName(f *types.Var) string {
	if f.Pkg() == nil {
		return "?"
	}
	// Walk the package scope for the named type whose underlying struct
	// contains exactly this field object.
	scope := f.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == f {
				return f.Pkg().Name() + "." + name
			}
		}
	}
	return f.Pkg().Name() + ".?"
}
