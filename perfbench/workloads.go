package main

import (
	"fmt"
	"sort"
	"strings"

	"detobj/internal/chaos"
	"detobj/internal/consensus"
	"detobj/internal/modelcheck"
	"detobj/internal/recoverable"
	"detobj/internal/registers"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
	"detobj/internal/tasks"
	"detobj/internal/wrn"
)

// verdictKind names the layer a verdict's engine time belongs to.
type verdictKind int

const (
	// kindTree is one exhaustive or reduced engine call over a Factory.
	kindTree verdictKind = iota
	// kindEquiv is one CheckIndistinguishability call over a finite
	// object (no Factory, no simulator runs).
	kindEquiv
	// kindChaos is one seed's batch of direct sim.Run calls.
	kindChaos
)

// verdict is one timed unit of work. run receives a nil tracer when
// tracing is off; every tracer method is then a pass-through.
type verdict struct {
	name string
	kind verdictKind
	run  func(tr *tracer) (outcome, error)
}

// outcome is what a verdict computed. print is a canonical rendering of
// every reported field; for the explorers it is seed-independent and
// compared against the pinned table.
type outcome struct {
	executions int
	print      string
	sym        modelcheck.SymmetryReport
	faults     faultCounts
}

// faultCounts sums the chaos reports of one verdict.
type faultCounts struct {
	crashes, restarts, recoveries, maxStall int
}

func (f *faultCounts) merge(o faultCounts) {
	f.crashes += o.crashes
	f.restarts += o.restarts
	f.recoveries += o.recoveries
	f.maxStall = max(f.maxStall, o.maxStall)
}

// workload is a named fixed list of verdicts built from the seed. The
// runner shuffles the list before every pass.
type workload struct {
	name  string
	build func(seed int64) []verdict
}

var workloads = []workload{
	{"explore-exhaustive", exhaustiveVerdicts},
	{"explore-reduced", reducedVerdicts},
	{"simulate-chaos", chaosVerdicts},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs returns n distinct proposal values. The seed shifts them by a
// common offset: order, digit count and encoded width stay the same, so
// every explored tree, count and verdict is identical for every seed.
func inputs(seed int64, n int) []sim.Value {
	base := 1000 + int(uint64(seed)*2654435761%4000)
	vs := make([]sim.Value, n)
	for i := range vs {
		vs[i] = base + 10*i
	}
	return vs
}

// alg2Factory is E1: k processes solving (k−1)-set consensus from one
// 1sWRN_k.
func alg2Factory(vs []sim.Value) modelcheck.Factory {
	return func() sim.Config {
		objects := map[string]sim.Object{}
		return sim.Config{Objects: objects, Programs: setconsensus.NewAlg2(objects, "W", vs)}
	}
}

// relaxedFactory is E4: procs contenders on a relaxed WRN_k, process 0
// alone on index 1. Each program renders its value when it runs, as the
// E4 experiment does; the seed-chosen tag always has four digits.
func relaxedFactory(seed int64, k, procs int) modelcheck.Factory {
	tag := inputs(seed, 1)[0].(int)
	return func() sim.Config {
		objects := map[string]sim.Object{}
		rlx, _ := wrn.NewRelaxed(objects, "W", k)
		progs := make([]sim.Program, procs)
		for p := range progs {
			if p == 0 {
				progs[p] = func(ctx *sim.Ctx) sim.Value { return rlx.RlxWRN(ctx, 1, fmt.Sprintf("s%d", tag)) }
				continue
			}
			progs[p] = func(ctx *sim.Ctx) sim.Value { return rlx.RlxWRN(ctx, 0, fmt.Sprintf("p%d", tag+p)) }
		}
		return sim.Config{Objects: objects, Programs: progs}
	}
}

// twoProc builds a two-process consensus protocol factory.
func twoProc(build func(map[string]sim.Object, string, sim.Value, sim.Value) []sim.Program, vs []sim.Value) modelcheck.Factory {
	return func() sim.Config {
		objects := map[string]sim.Object{}
		return sim.Config{Objects: objects, Programs: build(objects, "X", vs[0], vs[1])}
	}
}

// e11Row is one E11 protocol with the symmetry group the reduced
// engine quotients it by.
type e11Row struct {
	name string
	f    modelcheck.Factory
	vs   []sim.Value
	sym  modelcheck.Symmetry
}

func e11Rows(seed int64) []e11Row {
	v2, v3 := inputs(seed, 2), inputs(seed, 3)
	sym2 := modelcheck.SymmetricClasses(2, []int{0, 1})
	sym2.Rename = modelcheck.RenameByInputs(v2)
	naive := modelcheck.SymmetricClasses(3, []int{0, 2})
	naive.Rename = modelcheck.RenameByInputs(v3)
	return []e11Row{
		{"E11/swap", twoProc(consensus.TwoConsFromSwap, v2), v2, sym2},
		{"E11/wrn2", twoProc(consensus.TwoConsFromWRN2, v2), v2, sym2},
		{"E11/tas", twoProc(consensus.TwoConsFromTAS, v2), v2, sym2},
		{"E11/queue", twoProc(consensus.TwoConsFromQueue, v2), v2, sym2},
		{"E11/fetchadd", twoProc(consensus.TwoConsFromFetchAdd, v2), v2, sym2},
		{"E11/naive3", func() sim.Config {
			objects := map[string]sim.Object{}
			progs := consensus.ThreeFromWRN2Naive(objects, "X", [3]sim.Value{v3[0], v3[1], v3[2]})
			return sim.Config{Objects: objects, Programs: progs}
		}, v3, naive},
	}
}

// e20CrashAts is the fixed subset of the E20 amnesiac crash-restart
// sweep: victim 0, window 3, crash points 2..5. A crash at step 2 leaves
// the plain objects in agreement; from step 3 on it strips them of it.
// Victim 1 is the mirror image (same counts) and is left out.
var e20CrashAts = []int{2, 3, 4, 5}

var e20Protocols = []struct {
	name  string
	build func(map[string]sim.Object, string, sim.Value, sim.Value) []sim.Program
}{
	{"plain-tas", recoverable.TwoConsFromPlainTAS},
	{"rec-tas", recoverable.TwoConsFromRecTAS},
	{"plain-wrn2", recoverable.TwoConsFromPlainWRN2},
	{"rec-wrn2", recoverable.TwoConsFromRecWRN2},
}

// printValency renders a ValencyReport with decision values mapped back
// to input positions, so the rendering is seed-independent.
func printValency(r *modelcheck.ValencyReport, vs []sim.Value) string {
	names := make([]string, len(r.Values))
	for i, v := range r.Values {
		names[i] = v
		for j, in := range vs {
			if fmt.Sprint(in) == v {
				names[i] = fmt.Sprintf("in%d", j)
			}
		}
	}
	sort.Strings(names)
	return fmt.Sprintf("configs=%d executions=%d bivalent=%d critical=%d agreement=%v values=%s disagreement=%v",
		r.Configs, r.Executions, r.Bivalent, r.Critical, r.Agreement, strings.Join(names, ","), r.DisagreementSchedule)
}

func printSym(r *modelcheck.SymmetryReport) string { return fmt.Sprintf("%+v", *r) }

// allDone is the E4 visit check: every contender finishes.
func allDone(e modelcheck.Execution) error {
	for i, st := range e.Result.Status {
		if st != sim.StatusDone {
			return fmt.Errorf("process %d ended %v", i, st)
		}
	}
	return nil
}

// exhaustiveVerdicts is the explore-exhaustive list: the unreduced
// oracle engines.
func exhaustiveVerdicts(seed int64) []verdict {
	var out []verdict
	for k := 4; k <= 6; k++ {
		vs := inputs(seed, k)
		f := alg2Factory(vs)
		task := tasks.SetConsensus{K: k - 1}
		in := participants(vs)
		out = append(out, verdict{fmt.Sprintf("E1/alg2/k=%d", k), kindTree, func(tr *tracer) (outcome, error) {
			n, err := modelcheck.Explore(tr.factory(f), 0, tr.visit(func(e modelcheck.Execution) error {
				return tr.taskCheck(task, e.Result, in)
			}))
			return outcome{executions: n, print: fmt.Sprintf("executions=%d", n)}, err
		}})
	}
	e4 := relaxedFactory(seed, 3, 4)
	out = append(out, verdict{"E4/k=3/procs=4", kindTree, func(tr *tracer) (outcome, error) {
		n, err := modelcheck.Explore(tr.factory(e4), 1<<40, tr.visit(allDone))
		return outcome{executions: n, print: fmt.Sprintf("executions=%d", n)}, err
	}})
	for _, row := range e11Rows(seed) {
		out = append(out, verdict{row.name, kindTree, func(tr *tracer) (outcome, error) {
			rep, err := modelcheck.AnalyzeValency(tr.factory(row.f), 0)
			if err != nil {
				return outcome{}, err
			}
			return outcome{executions: rep.Executions, print: printValency(rep, row.vs)}, nil
		}})
	}
	vs := inputs(seed, 2)
	for _, p := range e20Protocols {
		f := twoProc(p.build, vs)
		for _, crashAt := range e20CrashAts {
			name := fmt.Sprintf("E20/%s/crashAt=%d", p.name, crashAt)
			out = append(out, verdict{name, kindTree, func(tr *tracer) (outcome, error) {
				rep, err := modelcheck.AnalyzeValencyUnder(tr.factory(f), func(inner sim.Scheduler) sim.Scheduler {
					return chaos.NewCrashRestart(inner, chaos.NewReport(0), 0, crashAt, 3)
				}, 0)
				if err != nil {
					return outcome{}, err
				}
				return outcome{executions: rep.Executions, print: printValency(rep, vs)}, nil
			}})
		}
	}
	return out
}

// reducedVerdicts is the explore-reduced list: the symmetry-reduced
// engines plus the E6 indistinguishability zoo.
func reducedVerdicts(seed int64) []verdict {
	var out []verdict
	for procs := 4; procs <= 6; procs++ {
		f := relaxedFactory(seed, 3, procs)
		followers := make([]int, procs-1)
		for i := range followers {
			followers[i] = i + 1
		}
		red := modelcheck.Reduced{Sym: modelcheck.SymmetricClasses(procs, followers)}
		out = append(out, verdict{fmt.Sprintf("E4r/k=3/procs=%d", procs), kindTree, func(tr *tracer) (outcome, error) {
			visit := tr.visit(allDone)
			rep, err := modelcheck.ExploreReduced(tr.factory(f), red, 1<<40, func(e modelcheck.Execution, _ int) error {
				return visit(e)
			})
			if err != nil {
				return outcome{}, err
			}
			return outcome{executions: rep.Executions, print: printSym(rep), sym: *rep}, nil
		}})
	}
	for _, row := range e11Rows(seed) {
		out = append(out, verdict{row.name + "/reduced", kindTree, func(tr *tracer) (outcome, error) {
			rep, srep, err := modelcheck.AnalyzeValencyReduced(tr.factory(row.f), modelcheck.Reduced{Sym: row.sym}, 0)
			if err != nil {
				return outcome{}, err
			}
			return outcome{executions: srep.Executions, print: printValency(rep, row.vs) + " " + printSym(srep), sym: *srep}, nil
		}})
	}
	for _, z := range e6Zoo() {
		out = append(out, verdict{"E6/" + z.name, kindEquiv, func(*tracer) (outcome, error) {
			rep, err := modelcheck.CheckIndistinguishability(z.init(), z.alpha, 1<<15)
			if err != nil {
				return outcome{}, err
			}
			return outcome{print: fmt.Sprintf("states=%d pairs=%d failures=%d degenerate=%d passed=%v",
				rep.States, rep.Pairs, len(rep.Failures), len(rep.Degenerate), rep.Passed())}, nil
		}})
	}
	return out
}

// e6Object is one row of the E6 object zoo. init builds a fresh initial
// object per call, since verdicts repeat.
type e6Object struct {
	name  string
	init  func() modelcheck.Finite
	alpha []sim.Invocation
}

func e6Zoo() []e6Object {
	two := func(op string) []sim.Invocation {
		return []sim.Invocation{{Op: op, Args: []sim.Value{"p"}}, {Op: op, Args: []sim.Value{"q"}}}
	}
	regAlpha := append([]sim.Invocation{{Op: "read"}}, two("write")...)
	zoo := []e6Object{
		{"register", func() modelcheck.Finite { return registers.New("init") }, regAlpha},
		{"1sWRN_3", func() modelcheck.Finite { return wrn.NewOneShot(3) }, modelcheck.WRNAlphabet(3, 2)},
		{"swap", func() modelcheck.Finite { return consensus.NewSwap(nil) }, two("swap")},
		{"test-and-set", func() modelcheck.Finite { return consensus.NewTestAndSet() }, []sim.Invocation{{Op: "tas"}}},
		{"consensus-cell", func() modelcheck.Finite { return consensus.NewCell(4) }, two("propose")},
	}
	for k := 2; k <= 6; k++ {
		zoo = append(zoo, e6Object{fmt.Sprintf("WRN_%d", k), func() modelcheck.Finite { return wrn.New(k) }, modelcheck.WRNAlphabet(k, 2)})
	}
	return zoo
}

// chaosBatches is the number of seeds in one simulate-chaos pass.
const chaosBatches = 64

// chaosVerdicts is the simulate-chaos list: one verdict per batch seed.
func chaosVerdicts(seed int64) []verdict {
	out := make([]verdict, chaosBatches)
	for i := range out {
		s := seed*chaosBatches + int64(i)
		out[i] = verdict{fmt.Sprintf("chaos/batch=%d", i), kindChaos, func(tr *tracer) (outcome, error) {
			return chaosBatch(tr, s)
		}}
	}
	return out
}

func participants(vs []sim.Value) map[int]sim.Value {
	in := make(map[int]sim.Value, len(vs))
	for i, v := range vs {
		in[i] = v
	}
	return in
}
