package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFunc parses src as a file and returns its first function
// declaration.
func parseFunc(t *testing.T, src string) *ast.FuncDecl {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "cfg_test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return fd
		}
	}
	t.Fatal("no function declaration in source")
	return nil
}

// TestCFGFuncLitOpaque pins the function-literal boundary: a return
// inside a closure belongs to the closure's own CFG, never to the CFG of
// the enclosing declaration.
func TestCFGFuncLitOpaque(t *testing.T) {
	fd := parseFunc(t, `package p
func f(xs []int) func() int {
	var g func() int
	for _, x := range xs {
		g = func() int {
			for {
				return x
			}
		}
	}
	return g
}`)
	var lit *ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if l, ok := n.(*ast.FuncLit); ok {
			lit = l
		}
		return lit == nil
	})
	if lit == nil {
		t.Fatal("no function literal in source")
	}
	returns := func(g *CFG) []*ast.ReturnStmt {
		var out []*ast.ReturnStmt
		for _, b := range g.Blocks {
			for _, s := range b.Stmts {
				if r, ok := s.(*ast.ReturnStmt); ok {
					out = append(out, r)
				}
			}
		}
		return out
	}
	outer := returns(BuildCFG(fd.Body))
	if len(outer) != 1 || len(outer[0].Results) != 1 || outer[0].Results[0].(*ast.Ident).Name != "g" {
		t.Errorf("outer CFG returns = %d, want only `return g` (the closure's return leaked)", len(outer))
	}
	inner := returns(BuildCFG(lit.Body))
	if len(inner) != 1 || inner[0].Results[0].(*ast.Ident).Name != "x" {
		t.Errorf("closure CFG returns = %d, want only `return x`", len(inner))
	}
}

// TestCFGBlocksConnected sanity-checks the block structure: every block
// except possibly terminator-created tails is reachable from the entry.
func TestCFGBlocksConnected(t *testing.T) {
	fd := parseFunc(t, `package p
func f(n int) int {
	if n > 0 {
		n--
	} else {
		n++
	}
	for i := 0; i < n; i++ {
		n += i
	}
	switch n {
	case 1:
		return 1
	default:
		return n
	}
}`)
	cfg := BuildCFG(fd.Body)
	if cfg.Entry == nil || len(cfg.Blocks) == 0 {
		t.Fatal("empty CFG")
	}
	seen := make(map[*Block]bool)
	stack := []*Block{cfg.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	var stmts int
	for b := range seen {
		stmts += len(b.Stmts)
	}
	if stmts == 0 {
		t.Error("no statements reachable from the entry block")
	}
}
