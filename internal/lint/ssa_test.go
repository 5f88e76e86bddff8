package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// loadScratch type-checks a one-file throwaway module, so unit tests can
// probe the SSA-lite and lockset layers without dragging in the fixture
// module load.
func loadScratch(t *testing.T, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	for name, content := range map[string]string{
		"go.mod":     "module scratch\n\ngo 1.22\n",
		"scratch.go": src,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Load(dir)
	if err != nil {
		t.Fatalf("loading scratch module: %v", err)
	}
	pkg := m.Lookup("scratch")
	if pkg == nil {
		t.Fatal("scratch package not loaded")
	}
	return pkg
}

func declOf(t *testing.T, pkg *Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	t.Fatalf("no function %s in scratch package", name)
	return nil
}

func firstReturn(t *testing.T, fd *ast.FuncDecl) *ast.ReturnStmt {
	t.Helper()
	var ret *ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok && ret == nil {
			ret = r
		}
		return ret == nil
	})
	if ret == nil {
		t.Fatalf("no return statement in %s", fd.Name.Name)
	}
	return ret
}

func localVar(t *testing.T, pkg *Package, fd *ast.FuncDecl, name string) *types.Var {
	t.Helper()
	var v *types.Var
	ast.Inspect(fd, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != name || v != nil {
			return true
		}
		if d, ok := pkg.Info.Defs[id].(*types.Var); ok {
			v = d
		}
		return true
	})
	if v == nil {
		t.Fatalf("no variable %s in %s", name, fd.Name.Name)
	}
	return v
}

// TestSSABindings pins the reaching-definition semantics of the value
// graph: last write wins in straight-line code, joins materialize
// φ-nodes, augmented assignments merge with the prior binding and carry
// their operator, range bindings name their statement, and address-taken
// variables are opaque.
func TestSSABindings(t *testing.T) {
	pkg := loadScratch(t, `package scratch

func straight() int {
	x := 1
	x = 2
	return x
}

func joined(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}

func folded() int {
	t := 0
	t += 5
	return t
}

func ranged(m map[int]int) int {
	s := 0
	for k, v := range m {
		s += k + v
	}
	return s
}

func taken() int {
	x := 1
	p := &x
	_ = p
	return x
}
`)

	t.Run("straight-line last write wins", func(t *testing.T) {
		fd := declOf(t, pkg, "straight")
		ssa := BuildSSA(pkg, fd)
		ret := firstReturn(t, fd)
		val, ok := ssa.BindingAt(ret, localVar(t, pkg, fd, "x")).(ExprVal)
		if !ok {
			t.Fatalf("binding = %#v, want ExprVal", val)
		}
		if lit, ok := val.E.(*ast.BasicLit); !ok || lit.Value != "2" {
			t.Errorf("binding expression = %v, want the literal 2", val.E)
		}
	})

	t.Run("join materializes a phi", func(t *testing.T) {
		fd := declOf(t, pkg, "joined")
		ssa := BuildSSA(pkg, fd)
		phi, ok := ssa.BindingAt(firstReturn(t, fd), localVar(t, pkg, fd, "x")).(*PhiVal)
		if !ok {
			t.Fatal("binding after an if/else join is not a PhiVal")
		}
		if len(phi.Ops) != 2 {
			t.Fatalf("phi has %d operands, want 2", len(phi.Ops))
		}
		lits := make(map[string]bool)
		for _, op := range phi.Ops {
			if ev, ok := op.(ExprVal); ok {
				if lit, ok := ev.E.(*ast.BasicLit); ok {
					lits[lit.Value] = true
				}
			}
		}
		if !lits["1"] || !lits["2"] {
			t.Errorf("phi operands = %v, want the literals 1 and 2", lits)
		}
	})

	t.Run("augment merges and keeps its operator", func(t *testing.T) {
		fd := declOf(t, pkg, "folded")
		ssa := BuildSSA(pkg, fd)
		mv, ok := ssa.BindingAt(firstReturn(t, fd), localVar(t, pkg, fd, "t")).(MergeVal)
		if !ok {
			t.Fatal("binding after += is not a MergeVal")
		}
		if mv.Op != token.ADD_ASSIGN {
			t.Errorf("merge operator = %v, want +=", mv.Op)
		}
		if mv.Var == nil || mv.Var.Name() != "t" {
			t.Errorf("merge variable = %v, want t", mv.Var)
		}
		if len(mv.Ops) != 2 {
			t.Errorf("merge has %d operands, want operand plus prior binding", len(mv.Ops))
		}
	})

	t.Run("range bindings carry the statement", func(t *testing.T) {
		fd := declOf(t, pkg, "ranged")
		ssa := BuildSSA(pkg, fd)
		var body ast.Stmt
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok && body == nil {
				body = rs.Body.List[0]
			}
			return body == nil
		})
		k, ok := ssa.BindingAt(body, localVar(t, pkg, fd, "k")).(RangeVal)
		if !ok || !k.IsKey {
			t.Errorf("key binding = %#v, want RangeVal{IsKey: true}", k)
		}
		v, ok := ssa.BindingAt(body, localVar(t, pkg, fd, "v")).(RangeVal)
		if !ok || v.IsKey {
			t.Errorf("value binding = %#v, want RangeVal{IsKey: false}", v)
		}
	})

	t.Run("address-taken variables are opaque", func(t *testing.T) {
		fd := declOf(t, pkg, "taken")
		ssa := BuildSSA(pkg, fd)
		if _, ok := ssa.BindingAt(firstReturn(t, fd), localVar(t, pkg, fd, "x")).(OpaqueVal); !ok {
			t.Error("binding of an address-taken variable is not OpaqueVal")
		}
	})
}

// TestLocksetMustHold pins the lockset transfer semantics through
// guardedSelectors: a plain Lock/Unlock bracket guards only the span
// between them, a branch that may release drops the lock at the join
// (must-hold is the intersection), a deferred unlock does not kill,
// RLock counts as holding, and TryLock never generates.
func TestLocksetMustHold(t *testing.T) {
	pkg := loadScratch(t, `package scratch

import "sync"

type G struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

func (g *G) bracket() {
	g.mu.Lock()
	g.n = 1
	g.mu.Unlock()
	g.n = 2
}

func (g *G) branchy(c bool) {
	g.mu.Lock()
	if c {
		g.mu.Unlock()
	}
	g.n = 3
}

func (g *G) deferred() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n = 4
}

func (g *G) reader() {
	g.rw.RLock()
	g.n = 5
	g.rw.RUnlock()
}

func (g *G) tentative() {
	if g.mu.TryLock() {
		g.n = 6
	}
}
`)

	// Each write to g.n is tagged by its assigned literal, so the guard
	// expectations are independent of statement order.
	wantGuards := map[string]int{"1": 1, "2": 0, "3": 0, "4": 1, "5": 1, "6": 0}
	for _, fn := range []string{"bracket", "branchy", "deferred", "reader", "tentative"} {
		fd := declOf(t, pkg, fn)
		guards := guardedSelectors(pkg, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 {
				return true
			}
			sel, ok := as.Lhs[0].(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "n" {
				return true
			}
			lit, ok := as.Rhs[0].(*ast.BasicLit)
			if !ok {
				return true
			}
			want, tracked := wantGuards[lit.Value]
			if !tracked {
				t.Errorf("%s: untagged write g.n = %s", fn, lit.Value)
				return true
			}
			if got := len(guards[sel]); got != want {
				t.Errorf("%s: write g.n = %s holds %d locks, want %d", fn, lit.Value, got, want)
			}
			return true
		})
	}
}

// TestFindingOrderTiebreak pins the canonical finding order: position
// first, then rule, then message — so two analyzers firing on the same
// statement always report in the same order.
func TestFindingOrderTiebreak(t *testing.T) {
	mk := func(file string, line int, rule, msg string) Diagnostic {
		d := Diagnostic{Rule: rule, Msg: msg}
		d.Pos.Filename = file
		d.Pos.Line = line
		return d
	}
	diags := []Diagnostic{
		{Pos: mk("b.go", 1, "z", "m").Pos, Rule: "z", Msg: "m"},
		mk("a.go", 2, "sharedstate", "beta"),
		mk("a.go", 2, "boundedloop", "gamma"),
		mk("a.go", 2, "boundedloop", "alpha"),
		mk("a.go", 1, "zzz", "last position wins over rule"),
	}
	sort.Slice(diags, func(i, j int) bool { return diagLess(diags[i], diags[j]) })
	got := make([]string, len(diags))
	for i, d := range diags {
		got[i] = d.Pos.Filename + "|" + d.Rule + "|" + d.Msg
	}
	want := []string{
		"a.go|zzz|last position wins over rule",
		"a.go|boundedloop|alpha",
		"a.go|boundedloop|gamma",
		"a.go|sharedstate|beta",
		"b.go|z|m",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("order[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}
