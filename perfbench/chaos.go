package main

import (
	"fmt"
	"math/rand"
	"strings"

	"detobj/internal/chaos"
	"detobj/internal/linearize"
	"detobj/internal/recoverable"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
	"detobj/internal/tasks"
	"detobj/internal/wrn"
)

// controlCrashPoints is the size of the negative-control sweep: batch
// seed s runs plain Algorithm 5 under a crash-restart at s mod this.
const controlCrashPoints = 9

// chaosBatch is one simulate-chaos verdict: every scenario of the
// batch seed, each a fresh seeded sim.Run with replay verification,
// checked against its invariants. The rendering carries every run's
// steps, statuses, outputs and chaos report.
func chaosBatch(tr *tracer, seed int64) (outcome, error) {
	b := &batch{tr: tr, seed: seed}
	for _, step := range []func() error{b.setConsensus, b.alg5Adversaries, b.restartAdversaries, b.control} {
		if err := step(); err != nil {
			return outcome{}, fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return outcome{executions: b.runs, print: b.out.String(), faults: b.faults}, nil
}

// batch accumulates one chaos verdict.
type batch struct {
	tr     *tracer
	seed   int64
	runs   int
	faults faultCounts
	out    strings.Builder
}

// run executes cfg with replay verification and records its rendering.
func (b *batch) run(name string, cfg sim.Config, r *chaos.Report) (*sim.Result, error) {
	cfg.VerifyReplay = true
	res, err := b.tr.simRun(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	b.runs++
	fmt.Fprintf(&b.out, "%s steps=%d status=%v restarts=%v out=%v\n", name, res.Steps, res.Status, res.Restarts, res.Outputs)
	if r != nil {
		b.faults.merge(faultCounts{r.Crashes(), r.Restarts(), r.Recoveries(), r.MaxStall()})
		b.out.WriteString(r.String())
	}
	return res, nil
}

// setConsensus runs Algorithm 2 (k=5), Algorithm 3 (k=3 and 5 over 64
// names) and an (4,2)-set consensus object under a seeded random
// schedule; tasks checks each outcome.
func (b *batch) setConsensus() error {
	rng := rand.New(rand.NewSource(b.seed))
	vs := inputs(b.seed, 5)
	objects := map[string]sim.Object{}
	if err := b.checked("alg2/k=5", 4, sim.Config{Objects: objects, Programs: setconsensus.NewAlg2(objects, "W", vs)}, participants(vs)); err != nil {
		return err
	}
	for _, k := range []int{3, 5} {
		const m = 64
		objects := map[string]sim.Object{}
		a, _ := setconsensus.NewAlg3(objects, "A", k, m, setconsensus.CoveringFamily(k))
		in := map[int]sim.Value{}
		progs := make([]sim.Program, k)
		for p, id := range rng.Perm(m)[:k] {
			in[p] = 1000 + id
			progs[p] = a.Program(id, 1000+id)
		}
		if err := b.checked(fmt.Sprintf("alg3/k=%d", k), k-1, sim.Config{Objects: objects, Programs: progs, MaxSteps: 1 << 20}, in); err != nil {
			return err
		}
	}
	obj := setconsensus.Ref{Name: "S"}
	progs := make([]sim.Program, 4)
	for p := range progs {
		progs[p] = func(ctx *sim.Ctx) sim.Value { return obj.Propose(ctx, vs[p]) }
	}
	return b.checked("setconsensus-object/n=4/k=2", 2, sim.Config{
		Objects:  map[string]sim.Object{"S": setconsensus.NewObject(4, 2)},
		Programs: progs,
	}, participants(vs[:4]))
}

// checked runs cfg under a seeded random schedule and checks k-set
// consensus over the participants' inputs.
func (b *batch) checked(name string, k int, cfg sim.Config, in map[int]sim.Value) error {
	cfg.Scheduler = sim.NewRandom(b.seed)
	cfg.Seed = b.seed
	res, err := b.run(name, cfg, nil)
	if err != nil {
		return err
	}
	if err := b.tr.taskCheck(tasks.SetConsensus{K: k}, res, in); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// alg5Adversaries runs Algorithm 5 (k=4) under each simulator adversary
// of the chaos harness: survivors must finish and the history, pending
// operations included, must linearize.
func (b *batch) alg5Adversaries() error {
	const k = 4
	seed := b.seed
	victim := int(seed % k)
	stacks := []struct {
		name    string
		mk      func(r *chaos.Report) sim.Scheduler
		mayStop bool // the adversary crashes the victim for good
	}{
		{"crash-during-op", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewCrashDuringOp(sim.NewRandom(seed), r, victim, int(seed%4))
		}, true},
		{"crash-recovery", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewCrashRecovery(sim.NewRandom(seed), r, victim, 4, 30)
		}, false},
		{"stall", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewStall(sim.NewRandom(seed), r, victim, 2, 40)
		}, false},
		{"adaptive", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewAdaptive(seed, r)
		}, false},
	}
	for _, s := range stacks {
		objects := map[string]sim.Object{}
		impl := wrn.NewImpl(objects, "LW", k)
		progs := make([]sim.Program, k)
		for i := range progs {
			progs[i] = func(ctx *sim.Ctx) sim.Value { return impl.TracedWRN(ctx, i, 100+i) }
		}
		r := chaos.NewReport(seed)
		res, err := b.run("alg5/"+s.name, sim.Config{
			Objects:   objects,
			Programs:  progs,
			Scheduler: chaos.Instrument(s.mk(r), r),
			Seed:      seed,
			MaxSteps:  1 << 18,
		}, r)
		if err != nil {
			return err
		}
		for i, st := range res.Status {
			if st != sim.StatusDone && !(s.mayStop && st == sim.StatusStopped && i == victim) {
				return fmt.Errorf("alg5/%s: survivor %d ended %v", s.name, i, st)
			}
		}
		done, pending := linearize.OpsWithPending(res.Trace, impl.Name())
		if !b.tr.linCheck(wrn.Spec(k), append(done, pending...)) {
			return fmt.Errorf("alg5/%s: history not linearizable", s.name)
		}
	}
	return nil
}

// restartAdversaries runs the recoverable WRN plus a recoverable
// register under the single, repeated and adaptive amnesiac
// crash-restart adversaries: every incarnation chain finishes, every
// crash is matched by a restart, each logical WRN operation mutates the
// durable cells exactly once, and no staged-but-unpersisted register
// value is ever observed.
func (b *batch) restartAdversaries() error {
	const k = 3
	seed := b.seed
	victim := int(seed % k)
	stacks := []struct {
		name        string
		mk          func(r *chaos.Report) sim.Scheduler
		wantCrashes int // exact crash count, or -1 when only maxCrashes applies
		maxCrashes  int
	}{
		{"crash-restart", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewCrashRestart(sim.NewRandom(seed), r, victim, 2+int(seed%3), 3)
		}, 1, 1},
		{"repeated-restart", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewRepeatedCrashRestart(sim.NewRandom(seed), r, victim, 2, 2, 3)
		}, 3, 3},
		{"adaptive-restart", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewAdaptiveRestart(sim.NewRandom(seed), r, seed, 4)
		}, -1, 4},
	}
	for _, s := range stacks {
		objects := map[string]sim.Object{}
		w := recoverable.NewWRN(objects, "RW", k)
		objects["R"] = recoverable.NewRegister(nil)
		reg := recoverable.RegisterRef{Name: "R"}
		progs := make([]sim.Program, k)
		for i := range progs {
			progs[i] = func(ctx *sim.Ctx) sim.Value {
				reg.Write(ctx, fmt.Sprintf("v%d.%d", i, ctx.Incarnation()))
				reg.Persist(ctx)
				ctx.BeginOp("RW", "WRN", i, 100+i)
				out := w.WRN(ctx, i, i, 100+i)
				ctx.EndOp("RW", "WRN", out)
				return fmt.Sprintf("%v|%v", out, reg.Read(ctx))
			}
		}
		r := chaos.NewReport(seed)
		name := "recoverable-wrn/" + s.name
		res, err := b.run(name, sim.Config{
			Objects:   objects,
			Programs:  progs,
			Scheduler: chaos.Instrument(s.mk(r), r),
			Recovery:  w.Recovery(func(proc int) int { return proc }),
			Seed:      seed,
			MaxSteps:  1 << 18,
		}, r)
		if err != nil {
			return err
		}
		for i, st := range res.Status {
			if st != sim.StatusDone {
				return fmt.Errorf("%s: process %d ended %v", name, i, st)
			}
		}
		switch {
		case r.Recoveries() != 0:
			return fmt.Errorf("%s: %d full-persistence recoveries under an amnesiac adversary", name, r.Recoveries())
		case r.Restarts() != r.Crashes():
			return fmt.Errorf("%s: %d crashes but %d restarts", name, r.Crashes(), r.Restarts())
		case s.wantCrashes >= 0 && r.Crashes() != s.wantCrashes:
			return fmt.Errorf("%s: %d crashes, want %d", name, r.Crashes(), s.wantCrashes)
		case r.Crashes() > s.maxCrashes:
			return fmt.Errorf("%s: %d crashes exceed the budget %d", name, r.Crashes(), s.maxCrashes)
		}
		for opid := 0; opid < k; opid++ {
			if n := w.Core().ApplyCount(opid); n != 1 {
				return fmt.Errorf("%s: WRN op %d applied %d times, want once", name, opid, n)
			}
		}
		if err := noGhostReads(res.Trace); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// noGhostReads checks the recoverable register's persistence contract
// on a trace: a value staged by an incarnation that crashed before
// persisting it never surfaces in a later persist or read.
func noGhostReads(t sim.Trace) error {
	staged := map[int]sim.Value{}
	ghosts := map[sim.Value]bool{}
	for _, e := range t.Events {
		if e.Kind == sim.EventCrash {
			if v, ok := staged[e.Proc]; ok {
				ghosts[v] = true
				delete(staged, e.Proc)
			}
			continue
		}
		if e.Kind != sim.EventStep || e.Object != "R" {
			continue
		}
		switch e.Op {
		case "write":
			staged[e.Proc] = e.Args[0]
		case "persist", "read":
			if e.Op == "persist" {
				delete(staged, e.Proc)
			}
			if ghosts[e.Out] {
				return fmt.Errorf("%s by %d observed ghost value %v", e.Op, e.Proc, e.Out)
			}
		}
	}
	return nil
}

// control is the negative control: plain Algorithm 5 (no journal, no
// recovery step) under a round-robin crash-restart of process 0 at the
// batch's crash point. Whether the restart breaks it there — process 0
// re-applies its durable updates, or a bounded-use guard hangs it — is
// pinned per crash point in controlBroken.
func (b *batch) control() error {
	const k = 3
	crashAt := int(b.seed % controlCrashPoints)
	objects := map[string]sim.Object{}
	impl := wrn.NewImpl(objects, "LW", k)
	progs := make([]sim.Program, k)
	for i := range progs {
		progs[i] = func(ctx *sim.Ctx) sim.Value { return impl.WRN(ctx, i, 100+i) }
	}
	r := chaos.NewReport(int64(crashAt))
	name := fmt.Sprintf("control/crashAt=%d", crashAt)
	res, err := b.run(name, sim.Config{
		Objects:   objects,
		Programs:  progs,
		Scheduler: chaos.NewCrashRestart(sim.NewRoundRobin(), r, 0, crashAt, 0),
		MaxSteps:  1 << 16,
	}, r)
	if err != nil {
		return err
	}
	updates, hung := 0, false
	for _, e := range res.Trace.Events {
		if e.Kind == sim.EventStep && e.Proc == 0 && e.Op == "update" {
			updates++
		}
	}
	for _, st := range res.Status {
		hung = hung || st == sim.StatusHung
	}
	if broken := updates > 2 || hung; broken != controlBroken[crashAt] {
		return fmt.Errorf("%s: broken=%v, pinned %v", name, broken, controlBroken[crashAt])
	}
	return nil
}
