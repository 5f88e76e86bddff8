package recoverable_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"detobj/internal/recoverable"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

// step is one operation applied directly to an object as process proc,
// with the response it must return.
type step struct {
	proc int
	op   string
	args []sim.Value
	want sim.Value
}

func args(vs ...sim.Value) []sim.Value { return vs }

func applySteps(t *testing.T, obj sim.Object, phase string, steps []step) {
	t.Helper()
	for i, s := range steps {
		env := &sim.Env{Proc: s.proc, Step: i}
		if got := obj.Apply(env, sim.Invocation{Op: s.op, Args: s.args}).Value; got != s.want {
			t.Errorf("%s step %d: P%d %s%v = %v, want %v", phase, i, s.proc, s.op, s.args, got, s.want)
		}
	}
}

// TestCrashContract pins exactly which state of every sim.Recoverable
// implementor in this package survives a crash — the durable/volatile
// split the crash-restart experiments (E19/E20) rest on. Process 0 fills
// every field through the object's own operations (process 1 adds a
// bystander entry where state is per-process), the test crashes process
// 0 the way the runtime does — one OnCrash(0) call — and reads the
// surviving state back through the object's operations. A wiped durable
// field (amnesia) or a kept volatile one (ghost state) changes a
// read-back. A scan of the package source fails the test when an OnCrash
// method has no row here.
//
// Crashes land only between atomic steps, so the order of writes inside
// one Apply is not observable and is not pinned (DESIGN.md §8).
func TestCrashContract(t *testing.T) {
	rows := []struct {
		obj   sim.Object
		fill  []step
		after []step
		// check reads state no operation returns, after the read-back.
		check func(t *testing.T, obj sim.Object)
	}{
		{
			obj: recoverable.NewRegister(nil),
			fill: []step{
				{0, "write", args("d"), nil},
				{0, "persist", nil, "d"},
				{0, "write", args("s0"), nil},
				{1, "write", args("s1"), nil},
			},
			after: []step{
				{0, "read", nil, "d"},     // durable: the committed cell survives
				{0, "persist", nil, "d"},  // volatile: P0's staged write is gone
				{1, "persist", nil, "s1"}, // P1's staged write is untouched
			},
		},
		{
			obj: recoverable.NewScratch(),
			fill: []step{
				{0, "put", args("x"), nil},
				{1, "put", args("y"), nil},
			},
			after: []step{
				{0, "get", nil, nil}, // volatile: P0's slot is gone
				{1, "get", nil, "y"}, // P1's slot is untouched
			},
		},
		{
			obj:  recoverable.NewTestAndSet(),
			fill: []step{{0, "tas", nil, 0}},
			after: []step{
				{0, "winner", nil, 0}, // durable: the winner survives
				{0, "tas", nil, 0},    // the restarted winner re-learns its win
				{1, "tas", nil, 1},
			},
		},
		{
			obj: recoverable.NewWRNCore(2),
			fill: []step{
				{0, "apply", args(0, 1, "b"), wrn.Bottom},
				{0, "apply", args(1, 0, "a"), "b"},
			},
			after: []step{
				{0, "applied", args(1), true},      // durable: lastOp
				{0, "lookup", args(1), "b"},        // durable: lastResp
				{0, "apply", args(1, 0, "a"), "b"}, // replayed from the journal
			},
			check: func(t *testing.T, obj sim.Object) {
				c := obj.(*recoverable.WRNCore)
				// Durable cells and applies; the replay above mutated nothing.
				got := fmt.Sprint(c.K(), c.Cells(), c.ApplyCount(0), c.ApplyCount(1))
				if want := "2 [a b] 1 1"; got != want {
					t.Errorf("k, cells, applies after crash = %s, want %s", got, want)
				}
			},
		},
	}

	covered := make(map[string]bool)
	for _, r := range rows {
		typ := strings.TrimPrefix(fmt.Sprintf("%T", r.obj), "*recoverable.")
		covered[typ] = true
		t.Run(typ, func(t *testing.T) {
			rec, ok := r.obj.(sim.Recoverable)
			if !ok {
				t.Fatalf("%T does not implement sim.Recoverable", r.obj)
			}
			applySteps(t, r.obj, "fill", r.fill)
			rec.OnCrash(0)
			applySteps(t, r.obj, "after crash", r.after)
			if r.check != nil {
				r.check(t, r.obj)
			}
		})
	}
	for _, typ := range onCrashReceivers(t) {
		if !covered[typ] {
			t.Errorf("(*%s).OnCrash has no TestCrashContract row", typ)
		}
	}
}

// onCrashReceivers parses the package's non-test files and returns the
// receiver type of every OnCrash method.
func onCrashReceivers(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var out []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "OnCrash" {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			id, ok := recv.(*ast.Ident)
			if !ok {
				t.Fatalf("%s: OnCrash receiver %T is not a plain type name", fset.Position(fd.Pos()), recv)
			}
			out = append(out, id.Name)
		}
	}
	if len(out) == 0 {
		t.Fatal("found no OnCrash method in the package source")
	}
	return out
}
