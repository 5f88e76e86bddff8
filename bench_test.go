package detobj_test

// The benchmark harness regenerates every experiment of EXPERIMENTS.md:
// one benchmark per experiment, with sub-benchmarks sweeping the paper's
// parameters. Run with:
//
//	go test -bench=. -benchmem .
//
// Benchmarks measure the cost of one complete experiment unit (a full
// simulated run, an exhaustive check, or a calculus table) and assert the
// experiment's correctness condition on every iteration, so `-bench` runs
// double as high-volume validation.

import (
	"fmt"
	"math/rand"
	"testing"

	"detobj/internal/bgsim"
	"detobj/internal/consensus"
	"detobj/internal/core"
	"detobj/internal/immediate"
	"detobj/internal/iterated"
	"detobj/internal/linearize"
	"detobj/internal/modelcheck"
	"detobj/internal/registers"
	"detobj/internal/renaming"
	"detobj/internal/safeagreement"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
	"detobj/internal/snapshot"
	"detobj/internal/tasks"
	"detobj/internal/universal"
	"detobj/internal/wrn"
)

// BenchmarkE1Alg2SetConsensus: one Algorithm 2 run — k processes, one
// 1sWRN_k object, (k−1)-set consensus checked.
func BenchmarkE1Alg2SetConsensus(b *testing.B) {
	for _, k := range []int{3, 5, 8, 16, 32} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			vs := make([]sim.Value, k)
			inputs := map[int]sim.Value{}
			for i := range vs {
				vs[i] = i
				inputs[i] = i
			}
			task := tasks.SetConsensus{K: k - 1}
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				objects := map[string]sim.Object{}
				progs := setconsensus.NewAlg2(objects, "W", vs)
				res, err := sim.Run(sim.Config{
					Objects:   objects,
					Programs:  progs,
					Scheduler: sim.NewRandom(int64(n)),
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := task.Check(tasks.OutcomeFromResult(res, inputs)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3Alg3ManyProcs: one Algorithm 3 run — renaming plus the
// covering family of relaxed WRN_k instances.
func BenchmarkE3Alg3ManyProcs(b *testing.B) {
	for _, cfg := range []struct{ k, m int }{{3, 16}, {3, 64}, {4, 32}} {
		cfg := cfg
		b.Run(fmt.Sprintf("k=%d/M=%d", cfg.k, cfg.m), func(b *testing.B) {
			family := setconsensus.CoveringFamily(cfg.k)
			ids := make([]int, cfg.k)
			for i := range ids {
				ids[i] = (i * (cfg.m/cfg.k + 1)) % cfg.m
			}
			task := tasks.SetConsensus{K: cfg.k - 1}
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				objects := map[string]sim.Object{}
				a, _ := setconsensus.NewAlg3(objects, "A", cfg.k, cfg.m, family)
				inputs := map[int]sim.Value{}
				progs := make([]sim.Program, cfg.k)
				for p, id := range ids {
					inputs[p] = 1000 + id
					progs[p] = a.Program(id, 1000+id)
				}
				res, err := sim.Run(sim.Config{
					Objects:   objects,
					Programs:  progs,
					Scheduler: sim.NewRandom(int64(n)),
					MaxSteps:  1 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := task.Check(tasks.OutcomeFromResult(res, inputs)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4RlxWRN: a contended relaxed-WRN round — five processes race
// on one index; the flag principle must hold every time.
func BenchmarkE4RlxWRN(b *testing.B) {
	const procs = 5
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		objects := map[string]sim.Object{}
		rlx, one := wrn.NewRelaxed(objects, "W", 3)
		progs := make([]sim.Program, procs)
		for p := 0; p < procs; p++ {
			p := p
			progs[p] = func(ctx *sim.Ctx) sim.Value {
				return rlx.RlxWRN(ctx, 0, p)
			}
		}
		if _, err := sim.Run(sim.Config{Objects: objects, Programs: progs, Scheduler: sim.NewRandom(int64(n))}); err != nil {
			b.Fatal(err)
		}
		if one.Invocations(0) > 1 {
			b.Fatal("illegal one-shot use")
		}
	}
}

// BenchmarkE5Alg5Linearizable: one Algorithm 5 run plus the
// linearizability check of its history.
func BenchmarkE5Alg5Linearizable(b *testing.B) {
	for _, k := range []int{3, 4, 5} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			spec := wrn.Spec(k)
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				objects := map[string]sim.Object{}
				impl := wrn.NewImpl(objects, "LW", k)
				progs := make([]sim.Program, k)
				for i := 0; i < k; i++ {
					i := i
					progs[i] = func(ctx *sim.Ctx) sim.Value {
						return impl.TracedWRN(ctx, i, 100+i)
					}
				}
				res, err := sim.Run(sim.Config{
					Objects:   objects,
					Programs:  progs,
					Scheduler: sim.NewRandom(int64(n)),
					Seed:      int64(n),
				})
				if err != nil {
					b.Fatal(err)
				}
				ops := linearize.Ops(res.Trace, impl.Name())
				if !linearize.Check(spec, ops).OK {
					b.Fatal("not linearizable")
				}
			}
		})
	}
}

// BenchmarkE6Impossibility: the full mechanized Lemma 38 analysis of
// WRN_k over its reachable state space.
func BenchmarkE6Impossibility(b *testing.B) {
	for _, k := range []int{3, 4, 5} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			alpha := modelcheck.WRNAlphabet(k, 2)
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				rep, err := modelcheck.CheckIndistinguishability(wrn.New(k), alpha, 1<<15)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Clean() {
					b.Fatal("WRN failed Lemma 38 obligations")
				}
			}
		})
	}
}

// BenchmarkE7Matrix: the Theorem 41 implementability matrix up to n = 64.
func BenchmarkE7Matrix(b *testing.B) {
	sources := []core.SetCons{{N: 3, K: 2}, {N: 4, K: 3}, {N: 6, K: 2}, {N: 9, K: 4}}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		for _, src := range sources {
			m := core.ImplementabilityMatrix(src, 64)
			if len(m) != 63 {
				b.Fatal("bad matrix")
			}
		}
	}
}

// BenchmarkE8Hierarchy: the full pairwise 1sWRN ordering table.
func BenchmarkE8Hierarchy(b *testing.B) {
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		levels := core.WRNHierarchyLevels(40)
		for i := range levels {
			for j := range levels[i] {
				want := core.Equivalent
				if i < j {
					want = core.Stronger
				} else if i > j {
					want = core.Weaker
				}
				if levels[i][j] != want {
					b.Fatal("hierarchy violated")
				}
			}
		}
	}
}

// BenchmarkE9Ratio: one Algorithm 6 run at the paper's (12,8) example.
func BenchmarkE9Ratio(b *testing.B) {
	for _, cfg := range []struct{ n, k int }{{12, 3}, {24, 3}, {20, 5}} {
		cfg := cfg
		b.Run(fmt.Sprintf("n=%d/k=%d", cfg.n, cfg.k), func(b *testing.B) {
			task := tasks.SetConsensus{K: setconsensus.Guarantee(cfg.n, cfg.k)}
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				objects := map[string]sim.Object{}
				a := setconsensus.NewAlg6(objects, "G", cfg.n, cfg.k)
				inputs := map[int]sim.Value{}
				progs := make([]sim.Program, cfg.n)
				for i := 0; i < cfg.n; i++ {
					inputs[i] = i
					progs[i] = a.Program(i, i)
				}
				res, err := sim.Run(sim.Config{Objects: objects, Programs: progs, Scheduler: sim.NewRandom(int64(n))})
				if err != nil {
					b.Fatal(err)
				}
				if err := task.Check(tasks.OutcomeFromResult(res, inputs)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10Hierarchy: computing and verifying all O(n,k) separations.
func BenchmarkE10Hierarchy(b *testing.B) {
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		for cons := 2; cons <= 6; cons++ {
			f := core.Family{N: cons}
			for k := 1; k <= 4; k++ {
				if !f.Separation(k).Separated() {
					b.Fatal("separation failed")
				}
				if f.At(k).ConsensusNumber() != cons {
					b.Fatal("consensus number drifted")
				}
			}
		}
	}
}

// BenchmarkE11Valency: exhaustive valency analysis of the SWAP-based
// 2-consensus protocol.
func BenchmarkE11Valency(b *testing.B) {
	f := func() sim.Config {
		objects := map[string]sim.Object{}
		progs := consensus.TwoConsFromSwap(objects, "C", 10, 20)
		return sim.Config{Objects: objects, Programs: progs}
	}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		rep, err := modelcheck.AnalyzeValency(f, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Agreement {
			b.Fatal("disagreement")
		}
	}
}

// BenchmarkE12Substrates: the snapshot and renaming substrates — one
// AADGMS workload and one renaming round per iteration.
func BenchmarkE12Substrates(b *testing.B) {
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			objects := map[string]sim.Object{}
			s := snapshot.NewImpl(objects, "R", 3, nil)
			progs := make([]sim.Program, 3)
			for i := 0; i < 3; i++ {
				i := i
				progs[i] = func(ctx *sim.Ctx) sim.Value {
					s.Update(ctx, i, i)
					return s.Scan(ctx)[i]
				}
			}
			res, err := sim.Run(sim.Config{Objects: objects, Programs: progs, Scheduler: sim.NewRandom(int64(n))})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if res.Outputs[i] != i {
					b.Fatal("snapshot lost an update")
				}
			}
		}
	})
	b.Run("renaming", func(b *testing.B) {
		ids := []int{19, 3, 27, 8}
		task := tasks.Renaming{Names: 2*len(ids) - 1}
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			objects := map[string]sim.Object{}
			p := renaming.New(objects, "REN", 32)
			progs := make([]sim.Program, len(ids))
			inputs := map[int]sim.Value{}
			for i, id := range ids {
				inputs[i] = id
				progs[i] = p.Program(id)
			}
			res, err := sim.Run(sim.Config{
				Objects:   objects,
				Programs:  progs,
				Scheduler: sim.NewRandom(int64(n)),
				MaxSteps:  1 << 18,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := task.Check(tasks.OutcomeFromResult(res, inputs)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimThroughput measures raw simulator step throughput: one
// process hammering a counter.
func BenchmarkSimThroughput(b *testing.B) {
	const stepsPerRun = 4096
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		objects := map[string]sim.Object{"C": registers.NewCounter()}
		c := registers.CounterRef{Name: "C"}
		res, err := sim.Run(sim.Config{
			Objects: objects,
			Programs: []sim.Program{func(ctx *sim.Ctx) sim.Value {
				for i := 0; i < stepsPerRun-1; i++ {
					c.Inc(ctx)
				}
				return c.Read(ctx)
			}},
			DisableTrace: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Steps != stepsPerRun {
			b.Fatal("step miscount")
		}
	}
	b.ReportMetric(float64(stepsPerRun), "steps/op")
}

// BenchmarkProcessLifecycle measures one process's whole life in the
// simulator: spawn, 8 steps, exit. The exhaustive explorers replay runs
// this short at every tree node, so the fixed per-process cost weighs
// as much as the per-step one. The arena, scheduler, programs and
// choice source are reused so that only the lifecycle itself is
// measured: seeding a fresh source per run costs more than the run.
func BenchmarkProcessLifecycle(b *testing.B) {
	const stepsPerRun = 8
	c := registers.CounterRef{Name: "C"}
	cfg := sim.Config{
		Objects: map[string]sim.Object{"C": registers.NewCounter()},
		Programs: []sim.Program{func(ctx *sim.Ctx) sim.Value {
			for i := 0; i < stepsPerRun-1; i++ {
				c.Inc(ctx)
			}
			return c.Read(ctx)
		}},
		Scheduler:    sim.NewRoundRobin(),
		Choice:       rand.New(rand.NewSource(1)),
		DisableTrace: true,
		Arena:        &sim.RunArena{},
	}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Steps != stepsPerRun {
			b.Fatal("step miscount")
		}
	}
	b.ReportMetric(stepsPerRun, "steps/op")
}

// BenchmarkE13BGSimulation: one full BG simulation — n simulators jointly
// executing the m-process participating-set protocol through safe
// agreements.
func BenchmarkE13BGSimulation(b *testing.B) {
	for _, cfg := range []struct{ n, m int }{{2, 3}, {3, 4}, {4, 6}} {
		cfg := cfg
		b.Run(fmt.Sprintf("sims=%d/procs=%d", cfg.n, cfg.m), func(b *testing.B) {
			inputs := make([]sim.Value, cfg.m)
			for i := range inputs {
				inputs[i] = i
			}
			proto := bgsim.Protocol{
				Rounds: 1,
				Write:  func(_ int, input sim.Value, _ [][]sim.Value) sim.Value { return input },
				Decide: func(_ int, _ sim.Value, scans [][]sim.Value) sim.Value {
					seen := 0
					for _, v := range scans[0] {
						if v != nil {
							seen++
						}
					}
					return seen
				},
			}
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				objects := map[string]sim.Object{}
				s := bgsim.New(objects, "BG", cfg.n, inputs, proto, 0)
				res, err := sim.Run(sim.Config{
					Objects:   objects,
					Programs:  s.Programs(),
					Scheduler: sim.NewRandom(int64(n)),
					MaxSteps:  1 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < cfg.n; i++ {
					out := res.Outputs[i].(bgsim.Outputs)
					for p := 0; p < cfg.m; p++ {
						if out[p] == nil {
							b.Fatal("simulated process blocked with no crashes")
						}
					}
				}
			}
		})
	}
}

// BenchmarkE14ImmediateSnapshot: one full immediate-snapshot round with
// its three-property check.
func BenchmarkE14ImmediateSnapshot(b *testing.B) {
	for _, n := range []int{3, 5, 8} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			task := tasks.ImmediateSnapshot{}
			b.ReportAllocs()
			for iter := 0; iter < b.N; iter++ {
				objects := map[string]sim.Object{}
				pr := immediate.New(objects, "IS", n)
				inputs := map[int]sim.Value{}
				progs := make([]sim.Program, n)
				for i := 0; i < n; i++ {
					v := i * 10
					inputs[i] = v
					progs[i] = pr.Program(i, v)
				}
				res, err := sim.Run(sim.Config{
					Objects:   objects,
					Programs:  progs,
					Scheduler: sim.NewRandom(int64(iter)),
				})
				if err != nil {
					b.Fatal(err)
				}
				o := tasks.OutcomeFromResult(res, inputs)
				if err := task.Check(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSafeAgreement: one propose+resolve round for n proposers.
func BenchmarkSafeAgreement(b *testing.B) {
	const n = 4
	b.ReportAllocs()
	for iter := 0; iter < b.N; iter++ {
		objects := map[string]sim.Object{}
		sa := safeagreement.New(objects, "SA", n)
		progs := make([]sim.Program, n)
		for i := 0; i < n; i++ {
			i := i
			progs[i] = func(ctx *sim.Ctx) sim.Value {
				sa.Propose(ctx, i, i)
				return sa.ResolveBlocking(ctx)
			}
		}
		res, err := sim.Run(sim.Config{
			Objects:   objects,
			Programs:  progs,
			Scheduler: sim.NewRandom(int64(iter)),
			MaxSteps:  1 << 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 1; i < n; i++ {
			if res.Outputs[i] != res.Outputs[0] {
				b.Fatal("safe agreement disagreed")
			}
		}
	}
}

// BenchmarkE15Universal: one universal-construction round — n processes
// each apply one operation through consensus cells, then the history is
// linearizability-checked.
func BenchmarkE15Universal(b *testing.B) {
	counterSpec := linearize.Spec{
		Init: func() any { return 0 },
		Apply: func(state any, name string, args []sim.Value) (any, sim.Value) {
			v := state.(int)
			if name == "inc" {
				return v + 1, v + 1
			}
			return v, v
		},
	}
	for _, n := range []int{2, 3, 5} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for iter := 0; iter < b.N; iter++ {
				objects := map[string]sim.Object{}
				u := universal.New(objects, "U", n, 8*n, counterSpec)
				progs := make([]sim.Program, n)
				for p := 0; p < n; p++ {
					p := p
					progs[p] = func(ctx *sim.Ctx) sim.Value {
						ctx.BeginOp("CTR", "inc")
						out := u.NewSession(p).Apply(ctx, "inc")
						ctx.EndOp("CTR", "inc", out)
						return out
					}
				}
				res, err := sim.Run(sim.Config{
					Objects:   objects,
					Programs:  progs,
					Scheduler: sim.NewRandom(int64(iter)),
					MaxSteps:  1 << 18,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !linearize.Check(counterSpec, linearize.Ops(res.Trace, "CTR")).OK {
					b.Fatal("universal counter not linearizable")
				}
			}
		})
	}
}

// BenchmarkE16ProtocolComplex: exhaustively enumerating the one-round
// two-process protocol complex (16 executions, 3 simplices) per iteration.
func BenchmarkE16ProtocolComplex(b *testing.B) {
	b.ReportAllocs()
	for iter := 0; iter < b.N; iter++ {
		seen := map[string]bool{}
		_, err := modelcheck.Explore(func() sim.Config {
			objects := map[string]sim.Object{}
			pr := iterated.New(objects, "IIS", 2, 1)
			progs := make([]sim.Program, 2)
			for i := 0; i < 2; i++ {
				progs[i] = pr.Program(i, fmt.Sprintf("v%d", i))
			}
			return sim.Config{Objects: objects, Programs: progs}
		}, 0, func(e modelcheck.Execution) error {
			seen[iterated.OutcomeSignature(e.Result.Outputs)] = true
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(seen) != 3 {
			b.Fatalf("patterns = %d, want 3", len(seen))
		}
	}
}
