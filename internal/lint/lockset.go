package lint

// lockset.go computes the must-hold lockset of every statement in a
// function: the set of mutexes that are locked on *every* path from the
// entry to that statement. The fact is deliberately a must-analysis —
// joins intersect — so a guard is only credited when it is
// unconditional, which is the direction a lint must err in: a field
// access guarded on one path and bare on another is unguarded.
//
// Lock identity is the *types.Var of the mutex (a struct field or a
// local/package variable), abstracting over instances: s.mu and t.mu of
// the same struct type are the same lock. That keeps the analysis
// instance-insensitive and cheap.
//
// Deferred unlocks are ignored: a deferred Unlock runs at return, so
// within the body the lock stays held, which is precisely what the
// must-hold fact should say. TryLock never generates (its success is
// conditional). Calls are not transparent: a lock taken inside a callee
// is not credited to the caller.

import (
	"go/ast"
	"go/types"
	"sort"
)

// LockFacts is the result of the must-hold lockset analysis over one
// function body.
type LockFacts struct {
	// Before maps each block-member statement to the must-hold set in
	// effect immediately before the statement executes.
	Before map[ast.Stmt][]*types.Var
}

// ComputeLockFacts runs the dataflow over a function body's CFG.
func ComputeLockFacts(pkg *Package, cfg *CFG) *LockFacts {
	lf := &LockFacts{Before: make(map[ast.Stmt][]*types.Var)}

	in := make(map[*Block][]*types.Var)
	reached := map[*Block]bool{cfg.Entry: true}
	in[cfg.Entry] = nil

	// Fixed point: propagate out-states along edges, intersecting at
	// joins. Unreached blocks are ⊤ (identity of intersection).
	work := []*Block{cfg.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := transferLocks(pkg, b, in[b], nil)
		for _, s := range b.Succs {
			var next []*types.Var
			if !reached[s] {
				next = out
			} else {
				next = intersectLocks(in[s], out)
			}
			if !reached[s] || !equalLocks(in[s], next) {
				reached[s] = true
				in[s] = next
				work = append(work, s)
			}
		}
	}

	// Recording pass: with the solution fixed, walk blocks in index
	// order so each statement's Before set is the one from its first
	// block position.
	for _, b := range cfg.Blocks {
		if !reached[b] {
			continue
		}
		transferLocks(pkg, b, in[b], lf)
	}
	return lf
}

// transferLocks pushes a must-hold set through one block. When rec is
// non-nil the pass also records per-statement facts.
func transferLocks(pkg *Package, b *Block, held []*types.Var, rec *LockFacts) []*types.Var {
	for _, st := range b.Stmts {
		if rec != nil {
			if _, seen := rec.Before[st]; !seen {
				rec.Before[st] = held
			}
		}
		// Deferred and spawned calls do not execute at this position.
		switch st.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			continue
		}
		cur := held
		inspectShallow(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			lock, op := mutexOp(pkg, call)
			if lock == nil {
				return true
			}
			switch op {
			case "Lock", "RLock":
				cur = addLock(cur, lock)
			case "Unlock", "RUnlock":
				cur = delLock(cur, lock)
			}
			return true
		})
		held = cur
	}
	return held
}

// guardedSelectors maps every selector expression evaluated in the
// function — including inside nested function literals — to the
// must-hold lockset at its statement. A literal body is analyzed with
// an empty entry set: it may run on another goroutine, so locks held by
// the enclosing function are not credited to it.
func guardedSelectors(pkg *Package, fd *ast.FuncDecl) map[*ast.SelectorExpr][]*types.Var {
	out := make(map[*ast.SelectorExpr][]*types.Var)
	for _, body := range FuncBodies(fd) {
		cfg := BuildCFG(body)
		lf := ComputeLockFacts(pkg, cfg)
		for _, b := range cfg.Blocks {
			for _, st := range b.Stmts {
				held, reached := lf.Before[st]
				if !reached {
					continue // unreachable block
				}
				inspectShallow(st, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if _, seen := out[sel]; !seen {
							out[sel] = held
						}
					}
					return true
				})
			}
		}
	}
	return out
}

// mutexOp recognizes a sync.Mutex/RWMutex method call and resolves the
// receiver to its variable. op is one of Lock/RLock/Unlock/RUnlock;
// TryLock/TryRLock return op == "" (conditional acquisition never
// generates a must-hold fact).
func mutexOp(pkg *Package, call *ast.CallExpr) (*types.Var, string) {
	fn := resolvedFunc(pkg, call)
	if !isMethod(fn, "sync", "Lock", "RLock", "Unlock", "RUnlock") {
		return nil, ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	if v := lockVar(pkg, sel.X); v != nil {
		return v, fn.Name()
	}
	return nil, ""
}

// lockVar resolves a mutex receiver expression (s.mu, mu, w.inner.mu)
// to the variable naming the mutex — the innermost field or the plain
// variable.
func lockVar(pkg *Package, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := pkg.Info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[e]; ok {
			if v, ok := s.Obj().(*types.Var); ok {
				return v
			}
			return nil
		}
		// Qualified package-level mutex: pkgname.mu.
		v, _ := pkg.Info.Uses[e.Sel].(*types.Var)
		return v
	}
	return nil
}

// ---- Lock-set algebra (sorted slices, position order) -----------------

func lockLess(a, b *types.Var) bool {
	if a.Pos() != b.Pos() {
		return a.Pos() < b.Pos()
	}
	return a.Name() < b.Name()
}

func hasLock(set []*types.Var, v *types.Var) bool {
	for _, x := range set {
		if x == v {
			return true
		}
	}
	return false
}

// addLock returns set ∪ {v} without mutating set.
func addLock(set []*types.Var, v *types.Var) []*types.Var {
	if hasLock(set, v) {
		return set
	}
	out := make([]*types.Var, 0, len(set)+1)
	out = append(out, set...)
	out = append(out, v)
	sort.Slice(out, func(i, j int) bool { return lockLess(out[i], out[j]) })
	return out
}

// delLock returns set \ {v} without mutating set.
func delLock(set []*types.Var, v *types.Var) []*types.Var {
	if !hasLock(set, v) {
		return set
	}
	out := make([]*types.Var, 0, len(set)-1)
	for _, x := range set {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

func intersectLocks(a, b []*types.Var) []*types.Var {
	var out []*types.Var
	for _, x := range a {
		if hasLock(b, x) {
			out = append(out, x)
		}
	}
	return out
}

func equalLocks(a, b []*types.Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
