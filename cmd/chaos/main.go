// Command chaos sweeps seeds through the deterministic fault-injection
// harness (internal/chaos) on both substrates.
//
// For every seed the simulator scenarios run each adversary —
// crash-during-operation, crash-recovery, step-stall, the adaptive
// history-driven adversary, and a composed stack — over Algorithm 5,
// with replay verification on, checking that survivors finish and the
// crash history (pending operations included) linearizes. Each run is
// executed twice and its trace and chaos report compared byte for byte:
// a chaos run is identified by its seed alone.
//
// The native scenarios drive the lock-based election and set-consensus
// implementations with the seeded injector (yields, stalls and rare
// aborts at every chaos point) through the Bounded facade: every
// participant must return a decision or the typed ErrExhausted within
// its budget — never hang, never fail with anything else — and the
// safety bounds must hold among the survivors.
//
// The restart scenarios (E19) run the recoverable objects under the
// amnesiac crash-restart adversaries — single, repeated and adaptive —
// checking termination (every incarnation chain ends StatusDone), the
// fault accounting (every crash is matched by a restart; the recovery
// counter stays zero, these are restarts, not full-persistence
// recoveries), recoverable-WRN exactly-once semantics (each logical
// operation mutates the durable cells once, no matter how many
// incarnations retried it) and recoverable-register persistence safety
// (a staged-but-never-persisted write is never observed). A negative
// control sweeps the plain Algorithm 5 WRN under the same adversary and
// demands it break — if the control stops breaking, the adversary has
// lost its teeth and the scenario fails.
//
// On failure the driver prints the failing seed; re-running with
// -start <seed> -seeds 1 reproduces the run.
//
// Seeds sweep in parallel over GOMAXPROCS workers: every seed is a
// self-contained deterministic run, so each writes into its own buffer
// and the buffers are printed in seed order — the sweep's output and its
// first-failing-seed error are identical for every worker count.
//
// Usage:
//
//	chaos [-seeds N] [-start S] [-scenario sim|native|restart|all] [-v]
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"detobj/internal/chaos"
	"detobj/internal/linearize"
	"detobj/internal/par"
	"detobj/internal/recoverable"
	"detobj/internal/sim"
	"detobj/internal/wrn"
	"detobj/native"
)

func main() {
	seeds := flag.Int64("seeds", 20, "number of seeds to sweep")
	start := flag.Int64("start", 0, "first seed")
	scenario := flag.String("scenario", "all", "scenario to run: sim, native, restart or all")
	verbose := flag.Bool("v", false, "dump the full chaos report of every simulator run")
	flag.Parse()
	if err := run(os.Stdout, *scenario, *start, *seeds, par.Default(), *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, scenario string, start, seeds int64, workers int, verbose bool) error {
	doSim := scenario == "all" || scenario == "sim"
	doNative := scenario == "all" || scenario == "native"
	doRestart := scenario == "all" || scenario == "restart"
	if !doSim && !doNative && !doRestart {
		return fmt.Errorf("unknown scenario %q", scenario)
	}
	// One buffer per seed; par.ForEach guarantees every seed below the
	// failing one completes, so replaying the buffers in seed order and
	// stopping at the first error reproduces the sequential output.
	type slot struct {
		out bytes.Buffer
		err error
	}
	slots := make([]slot, seeds)
	_ = par.ForEach(int(seeds), workers, func(i int) error {
		seed := start + int64(i)
		s := &slots[i]
		if doSim {
			if err := simSweep(&s.out, seed, verbose); err != nil {
				s.err = fmt.Errorf("sim seed %d: %w (reproduce: chaos -scenario sim -start %d -seeds 1)", seed, err, seed)
				return s.err
			}
		}
		if doNative {
			if err := nativeSweep(&s.out, seed); err != nil {
				s.err = fmt.Errorf("native seed %d: %w (reproduce: chaos -scenario native -start %d -seeds 1)", seed, err, seed)
				return s.err
			}
		}
		if doRestart {
			if err := restartSweep(&s.out, seed, verbose); err != nil {
				s.err = fmt.Errorf("restart seed %d: %w (reproduce: chaos -scenario restart -start %d -seeds 1)", seed, err, seed)
				return s.err
			}
		}
		return nil
	})
	for i := range slots {
		if _, err := io.Copy(w, &slots[i].out); err != nil {
			return err
		}
		if slots[i].err != nil {
			return slots[i].err
		}
	}
	fmt.Fprintf(w, "chaos: %d seeds swept clean\n", seeds)
	return nil
}

// simRun executes one adversary stack over Algorithm 5 with replay
// verification and returns the result plus the flattened trace.
func simRun(seed int64, k int, mk func(r *chaos.Report) sim.Scheduler, r *chaos.Report) (*sim.Result, wrn.Impl, string, error) {
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
		Objects:      objects,
		Programs:     progs,
		Scheduler:    chaos.Instrument(mk(r), r),
		Seed:         seed,
		MaxSteps:     1 << 18,
		VerifyReplay: true,
	})
	if err != nil {
		return nil, impl, "", err
	}
	var b strings.Builder
	for _, e := range res.Trace.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return res, impl, b.String(), nil
}

// simSweep runs every simulator adversary for one seed, twice each,
// demanding byte-identical traces and reports across the two runs.
func simSweep(w io.Writer, seed int64, verbose bool) error {
	const k = 4
	victim := int(seed) % k
	stacks := []struct {
		name    string
		mk      func(r *chaos.Report) sim.Scheduler
		mayStop bool // the adversary crashes a process for good
	}{
		{"crash-during-op", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewCrashDuringOp(sim.NewRandom(seed), r, victim, int(seed)%4)
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
		{"composed", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewStall(
				chaos.NewCrashDuringOp(chaos.NewAdaptive(seed, r), r, victim, 1),
				r, (victim+1)%k, 3, 20)
		}, true},
	}
	for _, s := range stacks {
		r1 := chaos.NewReport(seed)
		res, impl, trace1, err := simRun(seed, k, s.mk, r1)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		for i, st := range res.Status {
			if st == sim.StatusDone {
				continue
			}
			if s.mayStop && st == sim.StatusStopped && i == victim {
				continue
			}
			return fmt.Errorf("%s: process %d ended %v", s.name, i, st)
		}
		done, pending := linearize.OpsWithPending(res.Trace, impl.Name())
		if !linearize.Check(wrn.Spec(k), append(done, pending...)).OK {
			return fmt.Errorf("%s: chaos history not linearizable", s.name)
		}
		r2 := chaos.NewReport(seed)
		_, _, trace2, err := simRun(seed, k, s.mk, r2)
		if err != nil {
			return fmt.Errorf("%s (replay): %w", s.name, err)
		}
		if trace1 != trace2 {
			return fmt.Errorf("%s: trace not reproducible from seed", s.name)
		}
		if r1.String() != r2.String() {
			return fmt.Errorf("%s: report not reproducible from seed", s.name)
		}
		fmt.Fprintf(w, "sim seed %d %-16s steps=%d crashes=%d recoveries=%d maxstall=%d injections=%d\n",
			seed, s.name, res.Steps, r1.Crashes(), r1.Recoveries(), r1.MaxStall(), len(r1.Injections()))
		if verbose {
			fmt.Fprint(w, r1)
		}
	}
	return nil
}

// nativeSweep drives the native election through the seeded injector and
// the Bounded facade: every participant must decide or degrade to
// ErrExhausted within its deadline, and the election bound must hold
// among the survivors. The printed line carries only the seed's
// deterministic fault plan, so the sweep output reproduces byte for
// byte.
func nativeSweep(w io.Writer, seed int64) error {
	const k, m = 3, 16
	ids := []int{2, 9, 14}
	inj := chaos.NewInjector(seed, chaos.DefaultInjectorConfig, nil)
	e := native.NewElection(k, m)
	e.SetInjector(inj)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	decisions := make([]any, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for p, id := range ids {
		p, id := p, id
		wg.Add(1)
		//detlint:allow nodeterminism native-substrate participants are real goroutines by design; safety is checked after the deterministic fault plan, not the interleaving
		go func() {
			defer wg.Done()
			b := native.BoundedElection{E: e, B: native.Budget{Attempts: 3, Backoff: 2}}
			decisions[p], errs[p] = b.Propose(ctx, id, 1000+id)
		}()
	}
	wg.Wait()
	proposed := map[any]bool{}
	for _, id := range ids {
		proposed[1000+id] = true
	}
	distinct := map[any]bool{}
	for p, err := range errs {
		switch {
		case err == nil:
			if !proposed[decisions[p]] {
				return fmt.Errorf("participant %d decided unproposed %v", p, decisions[p])
			}
			distinct[decisions[p]] = true
		//detlint:allow hangsemantics the Bounded facade's documented degradation outcome is the one acceptable error here
		case errors.Is(err, native.ErrExhausted):
			// Graceful degradation: acceptable under injected aborts.
		default:
			return fmt.Errorf("participant %d failed with %v, want a decision or ErrExhausted", p, err)
		}
	}
	if len(distinct) > k-1 {
		return fmt.Errorf("%d distinct decisions, bound %d", len(distinct), k-1)
	}
	// Summarize the seed's deterministic fault plan over the election
	// sites: a pure function of the seed, independent of interleaving.
	var aborts, stalls, yields int
	for _, site := range []string{"election.propose", "election.rename.update", "election.rename.scan", "election.round", "election.rlx.won", "oneshot.locked"} {
		for _, f := range inj.Plan(site, 50) {
			switch f {
			case native.FaultAbort:
				aborts++
			case native.FaultStall:
				stalls++
			case native.FaultYield:
				yields++
			}
		}
	}
	fmt.Fprintf(w, "native seed %d ok plan(300 visits): aborts=%d stalls=%d yields=%d\n",
		seed, aborts, stalls, yields)
	return nil
}

// restartRun executes one amnesiac-restart adversary stack over the
// recoverable-WRN and recoverable-register workloads in a single
// simulator run with replay verification, returning the result, the
// core for exactly-once checks, and the flattened trace. Each of k
// processes performs one logical WRN operation (opid = process id)
// through the journaled recoverable WRN and one stage-persist-read pass
// through the recoverable register; Config.Recovery re-derives the
// WRN's volatile response cache from the durable journal.
func restartRun(seed int64, k int, mk func(r *chaos.Report) sim.Scheduler, r *chaos.Report) (*sim.Result, *recoverable.WRNCore, string, error) {
	objects := map[string]sim.Object{}
	wrh := recoverable.NewWRN(objects, "RW", k)
	objects["R"] = recoverable.NewRegister(nil)
	reg := recoverable.RegisterRef{Name: "R"}
	progs := make([]sim.Program, k)
	for i := 0; i < k; i++ {
		i := i
		progs[i] = func(ctx *sim.Ctx) sim.Value {
			// Stage a per-incarnation value, persist it, then race the WRN.
			// A crash between write and persist must drop the staged value
			// without a trace in any later read.
			reg.Write(ctx, fmt.Sprintf("v%d.%d", i, ctx.Incarnation()))
			reg.Persist(ctx)
			// Bracket the logical WRN with BeginOp/EndOp: the adaptive
			// adversary arms its crashes on operation entry, and a crash
			// between the marks leaves a visibly wiped pending op.
			ctx.BeginOp("RW", "WRN", i, 100+i)
			out := wrh.WRN(ctx, i, i, 100+i)
			ctx.EndOp("RW", "WRN", out)
			return fmt.Sprintf("%v|%v", out, reg.Read(ctx))
		}
	}
	res, err := sim.Run(sim.Config{
		Objects:      objects,
		Programs:     progs,
		Scheduler:    chaos.Instrument(mk(r), r),
		Recovery:     wrh.Recovery(func(proc int) int { return proc }),
		Seed:         seed,
		MaxSteps:     1 << 18,
		VerifyReplay: true,
	})
	if err != nil {
		return nil, nil, "", err
	}
	core := objects["RW.core"].(*recoverable.WRNCore)
	var b strings.Builder
	for _, e := range res.Trace.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return res, core, b.String(), nil
}

// checkRegisterSafety walks the trace and verifies the recoverable
// register's persistence contract: a value staged by an incarnation
// that crashed before persisting it (a ghost) must never surface as the
// durable value of any later persist or read. Staged values embed the
// incarnation, so every ghost is unique across the run.
func checkRegisterSafety(res *sim.Result) error {
	pending := map[int]sim.Value{} // proc -> staged, unpersisted value
	ghosts := map[sim.Value]bool{} // wiped staged values
	for _, e := range res.Trace.Events {
		switch {
		case e.Kind == sim.EventStep && e.Object == "R" && e.Op == "write":
			pending[e.Proc] = e.Args[0]
		case e.Kind == sim.EventStep && e.Object == "R" && e.Op == "persist":
			delete(pending, e.Proc)
			if ghosts[e.Out] {
				return fmt.Errorf("persist by %d surfaced ghost value %v", e.Proc, e.Out)
			}
		case e.Kind == sim.EventStep && e.Object == "R" && e.Op == "read":
			if ghosts[e.Out] {
				return fmt.Errorf("read by %d observed ghost value %v", e.Proc, e.Out)
			}
		case e.Kind == sim.EventCrash:
			if v, ok := pending[e.Proc]; ok {
				ghosts[v] = true
				delete(pending, e.Proc)
			}
		}
	}
	return nil
}

// restartControl runs the plain Algorithm 5 WRN (no journal, no recovery
// step) under a deterministic crash-restart sweep and counts the crash
// points at which the amnesiac restart visibly breaks it: the victim's
// re-run either mutates the shared arrays again (exactly-once violated)
// or trips a bounded-use guard and hangs. The recoverable workload
// survives the same adversary family, so this control is what pins the
// breakage on the object, not on the sweep being too gentle.
func restartControl(k int) (broken, points int, err error) {
	const crashPoints = 9
	for crashAt := 0; crashAt < crashPoints; crashAt++ {
		objects := map[string]sim.Object{}
		impl := wrn.NewImpl(objects, "LW", k)
		progs := make([]sim.Program, k)
		for i := 0; i < k; i++ {
			i := i
			progs[i] = func(ctx *sim.Ctx) sim.Value {
				return impl.WRN(ctx, i, 100+i)
			}
		}
		r := chaos.NewReport(int64(crashAt))
		res, runErr := sim.Run(sim.Config{
			Objects:      objects,
			Programs:     progs,
			Scheduler:    chaos.NewCrashRestart(sim.NewRoundRobin(), r, 0, crashAt, 0),
			MaxSteps:     1 << 16,
			VerifyReplay: true,
		})
		if runErr != nil {
			return 0, 0, fmt.Errorf("control crashAt=%d: %w", crashAt, runErr)
		}
		updates := 0
		for _, e := range res.Trace.Events {
			if e.Kind == sim.EventStep && e.Proc == 0 && e.Op == "update" {
				updates++
			}
		}
		hung := false
		for _, st := range res.Status {
			if st == sim.StatusHung {
				hung = true
			}
		}
		// One WRN pass updates R once and O once; a third update means the
		// restarted incarnation re-applied durable work.
		if updates > 2 || hung {
			broken++
		}
	}
	return broken, crashPoints, nil
}

// restartSweep runs every amnesiac crash-restart adversary for one seed
// (E19), twice each, demanding byte-identical traces and reports,
// termination of every incarnation chain, matched crash/restart
// accounting, recoverable-WRN exactly-once semantics and recoverable-
// register persistence safety — then checks the plain-WRN negative
// control still breaks under the same adversary family.
func restartSweep(w io.Writer, seed int64, verbose bool) error {
	const k = 3
	victim := int(seed) % k
	stacks := []struct {
		name string
		mk   func(r *chaos.Report) sim.Scheduler
		// wantCrashes is the stack's exact crash budget, or -1 when only
		// the upper bound maxCrashes applies (the adaptive adversary's
		// coin decides the exact count).
		wantCrashes int
		maxCrashes  int
	}{
		{"crash-restart", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewCrashRestart(sim.NewRandom(seed), r, victim, 2+int(seed)%3, 3)
		}, 1, 1},
		{"repeated-restart", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewRepeatedCrashRestart(sim.NewRandom(seed), r, victim, 2, 2, 3)
		}, 3, 3},
		{"adaptive-restart", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewAdaptiveRestart(sim.NewRandom(seed), r, seed, 4)
		}, -1, 4},
	}
	for _, s := range stacks {
		r1 := chaos.NewReport(seed)
		res, core, trace1, err := restartRun(seed, k, s.mk, r1)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		for i, st := range res.Status {
			if st != sim.StatusDone {
				return fmt.Errorf("%s: process %d ended %v, want StatusDone after restarts", s.name, i, st)
			}
		}
		if r1.Recoveries() != 0 {
			return fmt.Errorf("%s: %d recoveries recorded; amnesiac restarts must not count as full-persistence recoveries", s.name, r1.Recoveries())
		}
		if r1.Restarts() != r1.Crashes() {
			return fmt.Errorf("%s: %d crashes but %d restarts; every crash must be matched by a restart", s.name, r1.Crashes(), r1.Restarts())
		}
		if s.wantCrashes >= 0 && r1.Crashes() != s.wantCrashes {
			return fmt.Errorf("%s: %d crashes, want exactly %d", s.name, r1.Crashes(), s.wantCrashes)
		}
		if r1.Crashes() > s.maxCrashes {
			return fmt.Errorf("%s: %d crashes exceed the budget %d", s.name, r1.Crashes(), s.maxCrashes)
		}
		for opid := 0; opid < k; opid++ {
			if n := core.ApplyCount(opid); n != 1 {
				return fmt.Errorf("%s: WRN op %d mutated the durable cells %d times, want exactly once", s.name, opid, n)
			}
		}
		if err := checkRegisterSafety(res); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		r2 := chaos.NewReport(seed)
		_, _, trace2, err := restartRun(seed, k, s.mk, r2)
		if err != nil {
			return fmt.Errorf("%s (replay): %w", s.name, err)
		}
		if trace1 != trace2 {
			return fmt.Errorf("%s: trace not reproducible from seed", s.name)
		}
		if r1.String() != r2.String() {
			return fmt.Errorf("%s: report not reproducible from seed", s.name)
		}
		fmt.Fprintf(w, "restart seed %d %-17s steps=%d crashes=%d restarts=%d recoveries=%d injections=%d\n",
			seed, s.name, res.Steps, r1.Crashes(), r1.Restarts(), r1.Recoveries(), len(r1.Injections()))
		if verbose {
			fmt.Fprint(w, r1)
		}
	}
	broken, points, err := restartControl(k)
	if err != nil {
		return fmt.Errorf("negative control: %w", err)
	}
	if broken == 0 {
		return fmt.Errorf("negative control: plain Algorithm 5 WRN survived all %d crash points; the restart adversary lost its teeth", points)
	}
	fmt.Fprintf(w, "restart seed %d control: plain WRN broken at %d/%d crash points\n", seed, broken, points)
	return nil
}
