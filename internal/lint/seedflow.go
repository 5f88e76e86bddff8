package lint

// seedflow audits the inputs a par.ForEach worker computes: the seeds
// and configurations a worker hands to module functions — and the
// values it stores into its result slot — must be pure functions of the
// worker index, captured loop-invariant state, and constants. A worker
// that folds in a wall-clock read, a draw from a *shared* RNG (draw
// order depends on the worker schedule), a map iteration, or a channel
// receive produces schedule-dependent inputs that poison an otherwise
// perfectly slot-disciplined sweep: no data race, byte-different
// results per run.
//
// Seeded-from-index construction is the rule's GOOD pattern, not a
// finding: rand.New(rand.NewSource(seed + int64(i))) is argument-
// preserving — the constructors pass their argument's taint through —
// and drawing from a literal-local RNG built that way is deterministic.
// Only the global math/rand functions and methods on a *captured* RNG
// are origins. Module callees are boundary-opaque: the rule traces what
// the worker feeds them, while the callee's own internals remain
// decisionflow's and nodeterminism's obligation.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerSeedFlow returns the seedflow rule.
func AnalyzerSeedFlow() *Analyzer {
	return &Analyzer{
		Name: "seedflow",
		Doc:  "par.ForEach worker inputs (seeds, configs, slot values) must be pure functions of the worker index",
		Run:  runSeedFlow,
	}
}

func runSeedFlow(m *Module) []Diagnostic {
	g := m.CallGraph()
	var out []Diagnostic
	for _, n := range g.sortedNodes() {
		if !m.InScope(n.Pkg, "internal", "cmd") {
			continue
		}
		for _, w := range parWorkers(m, n) {
			out = append(out, checkSeedFlow(m, g, w)...)
		}
	}
	return out
}

// seedTracer walks a worker literal's value flow looking for
// schedule-dependent origins.
type seedTracer struct {
	pkg        *Package
	ssa        *FuncSSA
	captured   map[*types.Var]bool
	activePhis map[*PhiVal]bool
}

// checkSeedFlow audits one worker literal.
func checkSeedFlow(m *Module, g *CallGraph, w parWorker) []Diagnostic {
	pkg := w.node.Pkg
	t := &seedTracer{
		pkg:        pkg,
		ssa:        BuildLitSSA(pkg, w.lit),
		captured:   capturedVars(pkg, w.lit),
		activePhis: make(map[*PhiVal]bool),
	}
	type site struct {
		pos  ast.Node
		what string
		e    ast.Expr
		at   ast.Stmt
	}
	var sites []site
	for _, b := range t.ssa.CFG.Blocks {
		for _, st := range b.Stmts {
			inspectShallow(st, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := resolvedFunc(pkg, call)
				if fn == nil {
					return true
				}
				if _, isModule := g.Nodes[fn]; !isModule {
					return true
				}
				sig, _ := fn.Type().(*types.Signature)
				for i, a := range call.Args {
					if _, isLit := ast.Unparen(a).(*ast.FuncLit); isLit {
						continue
					}
					if pt := paramTypeAt(sig, i); isInterfaceType(pt) {
						continue
					}
					sites = append(sites, site{
						pos:  a,
						what: fmt.Sprintf("argument %d of %s", i+1, fn.Name()),
						e:    a, at: st,
					})
				}
				return true
			})
			// Slot-write values: what lands in the worker's own slot must
			// be index-pure too.
			if as, ok := st.(*ast.AssignStmt); ok && as.Tok != token.DEFINE {
				for i, l := range as.Lhs {
					root := rootOf(l)
					if root == nil {
						continue
					}
					v, ok := pkg.Info.Uses[root].(*types.Var)
					if !ok || !t.captured[v] {
						continue
					}
					rhs := as.Rhs[0]
					if len(as.Rhs) == len(as.Lhs) {
						rhs = as.Rhs[i]
					}
					sites = append(sites, site{
						pos:  rhs,
						what: fmt.Sprintf("value stored into captured %q", v.Name()),
						e:    rhs, at: st,
					})
				}
			}
		}
	}
	var out []Diagnostic
	seen := make(map[string]bool)
	for _, s := range sites {
		srcs := t.trace(s.e, s.at)
		sort.Strings(srcs)
		for _, src := range dedupStrings(srcs) {
			pos := m.Fset.Position(s.pos.Pos())
			key := fmt.Sprintf("%s:%d:%s:%s", pos.Filename, pos.Line, s.what, src)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, Diagnostic{
				Pos: pos,
				Msg: fmt.Sprintf("%s in a par.ForEach worker derives from %s; worker inputs must be pure functions of the worker index", s.what, src),
			})
		}
	}
	return out
}

// trace unions the schedule-dependent origins flowing into an
// expression.
func (t *seedTracer) trace(e ast.Expr, at ast.Stmt) []string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := t.pkg.Info.Uses[e]
		if obj == nil {
			obj = t.pkg.Info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || t.captured[v] || isPackageScoped(v) {
			// Captured reads are loop-invariant inputs (their write
			// discipline is slotdiscipline's job); package state is
			// nodeterminism's.
			return nil
		}
		return t.value(t.ssa.BindingAt(at, v))
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return []string{"a channel receive (completion order)"}
		}
		return t.trace(e.X, at)
	case *ast.StarExpr:
		return t.trace(e.X, at)
	case *ast.BinaryExpr:
		return append(t.trace(e.X, at), t.trace(e.Y, at)...)
	case *ast.CallExpr:
		return t.traceCall(e, at)
	case *ast.SelectorExpr:
		if _, ok := ast.Unparen(e.X).(*ast.Ident); !ok {
			return t.trace(e.X, at)
		}
		return nil
	case *ast.IndexExpr:
		return append(t.trace(e.X, at), t.trace(e.Index, at)...)
	case *ast.SliceExpr:
		return t.trace(e.X, at)
	case *ast.CompositeLit:
		var out []string
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = append(out, t.trace(el, at)...)
		}
		return out
	case *ast.TypeAssertExpr:
		return t.trace(e.X, at)
	}
	return nil
}

// traceCall classifies one call in a worker input expression.
func (t *seedTracer) traceCall(call *ast.CallExpr, at ast.Stmt) []string {
	pkg := t.pkg
	// Conversions and value-carrying builtins pass taint through.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		var out []string
		for _, a := range call.Args {
			out = append(out, t.trace(a, at)...)
		}
		return out
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append", "copy", "min", "max":
				var out []string
				for _, a := range call.Args {
					out = append(out, t.trace(a, at)...)
				}
				return out
			default:
				return nil
			}
		}
	}
	fn := resolvedFunc(pkg, call)
	if fn == nil {
		return nil // dynamic call: boundary-opaque
	}
	if src := t.seedOrigin(fn, call, at); src != "" {
		return []string{src}
	}
	// Argument-preserving constructors and every other call — module or
	// external — are boundary-opaque: trace what flows in.
	var out []string
	for _, a := range call.Args {
		if _, isLit := ast.Unparen(a).(*ast.FuncLit); isLit {
			continue
		}
		out = append(out, t.trace(a, at)...)
	}
	// A method chain's receiver carries taint too (r.Int63() with r
	// traced separately below, but also cfg.With(x).Seed(y)).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			out = append(out, t.trace(sel.X, at)...)
		}
	}
	return out
}

// seedOrigin classifies a call as a schedule-dependent origin for
// worker-input purposes.
func (t *seedTracer) seedOrigin(fn *types.Func, call *ast.CallExpr, at ast.Stmt) string {
	if fn.Pkg() == nil {
		return ""
	}
	path := fn.Pkg().Path()
	switch path {
	case "time":
		if isFunc(fn, "time", "Now", "Since", "Until") {
			return "time." + fn.Name() + " (wall clock)"
		}
	case "runtime":
		if fn.Type().(*types.Signature).Recv() == nil {
			return "runtime." + fn.Name() + " (runtime introspection)"
		}
	case "crypto/rand":
		return "crypto/rand." + fn.Name() + " (random source)"
	case "math/rand", "math/rand/v2":
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			// Constructors are argument-preserving (the caller traces the
			// seed); everything else package-level draws from the global
			// source.
			if strings.HasPrefix(fn.Name(), "New") {
				return ""
			}
			return "rand." + fn.Name() + " (global random source)"
		}
		// A method on an RNG: shared if the receiver roots at a captured
		// variable — its draw order depends on the worker schedule.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if root := rootOf(sel.X); root != nil {
				if v, ok := t.pkg.Info.Uses[root].(*types.Var); ok && t.captured[v] {
					return fmt.Sprintf("a draw from shared RNG %q (draw order depends on the worker schedule)", v.Name())
				}
			}
		}
	}
	return ""
}

// value walks the SSA-lite graph for origins.
func (t *seedTracer) value(v Value) []string {
	switch v := v.(type) {
	case ExprVal:
		return t.trace(v.E, v.At)
	case *PhiVal:
		if t.activePhis[v] {
			return nil
		}
		t.activePhis[v] = true
		defer delete(t.activePhis, v)
		var out []string
		for _, op := range v.Ops {
			out = append(out, t.value(op)...)
		}
		return out
	case RangeVal:
		var out []string
		if tt := t.pkg.Info.TypeOf(v.S.X); tt != nil {
			if _, isMap := tt.Underlying().(*types.Map); isMap {
				out = append(out, "map iteration order")
			}
		}
		return out
	case MergeVal:
		var out []string
		for _, op := range v.Ops {
			out = append(out, t.value(op)...)
		}
		if commutativeFold(v) {
			out = dropOrderSources(out)
		}
		return out
	}
	return nil // params, opaque
}

// paramTypeAt returns the declared type of the i-th argument slot,
// unwrapping the variadic tail.
func paramTypeAt(sig *types.Signature, i int) types.Type {
	if sig == nil || sig.Params() == nil {
		return nil
	}
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if sl, ok := last.Underlying().(*types.Slice); ok {
			return sl.Elem()
		}
		return last
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return nil
}

// isInterfaceType reports whether t (behind aliases) is an interface.
func isInterfaceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := types.Unalias(t).Underlying().(*types.Interface)
	return ok
}
