package detobj_test

// Wait-freedom, measured. For small instances of every in-simulator
// algorithm with a decision path, exhaustive exploration visits every
// execution; the largest number of steps one process takes to finish
// its operation over all of them is the step complexity the paper's
// wait-freedom claims rest on (the measure of the Ellen–Gelashvili–
// Shavit–Zhu complexity-based hierarchy). A step is one scheduled
// Invoke, so a process's step count is the number of times its id
// appears in Execution.Schedule.
//
// Each instance pins the measured maximum exactly: an extra shared
// access on any path moves it. The comment on each constant gives the
// analytic bound it must not exceed. A local loop that takes no
// simulator steps (renaming's nthFree) is invisible here; its own case
// tables cover it.

import (
	"fmt"
	"testing"

	"detobj/internal/consensus"
	"detobj/internal/immediate"
	"detobj/internal/linearize"
	"detobj/internal/modelcheck"
	"detobj/internal/renaming"
	"detobj/internal/sim"
	"detobj/internal/snapshot"
	"detobj/internal/universal"
)

// twoConsFactory builds one E11 2-consensus protocol on inputs 10, 20.
func twoConsFactory(build func(map[string]sim.Object, string, sim.Value, sim.Value) []sim.Program) modelcheck.Factory {
	return func() sim.Config {
		objects := map[string]sim.Object{}
		return sim.Config{Objects: objects, Programs: build(objects, "C", 10, 20)}
	}
}

func TestWaitFreeBounds(t *testing.T) {
	counter := linearize.Spec{
		Init: func() any { return 0 },
		Apply: func(state any, name string, _ []sim.Value) (any, sim.Value) {
			if name != "inc" {
				panic("unknown op " + name)
			}
			return state.(int) + 1, state.(int) + 1
		},
	}
	cases := []struct {
		name string
		f    modelcheck.Factory
		// maxSteps is the measured largest own-step count of one
		// process over every execution.
		maxSteps int
		// executions pins the size of the explored tree, so a change
		// that shrinks the instance cannot pass unnoticed.
		executions int
	}{
		// Bound 1: Algorithm 2 is a single WRN step per process.
		{"Alg2 k=5", alg2Factory(5), 1, 120},
		// Bound 3: Algorithm 4 takes inc, read and WRN on the fast path
		// and two steps when it gives up.
		{"relaxed WRN k=3 procs=3", relaxedE4Factory(3, 3), 3, 476},
		// Bound 3 for each register-backed protocol: publish the
		// proposal, race on the object once, and the loser reads the
		// winner's proposal.
		{"2-cons from SWAP", twoConsFactory(consensus.TwoConsFromSwap), 3, 6},
		{"2-cons from TAS", twoConsFactory(consensus.TwoConsFromTAS), 3, 6},
		{"2-cons from queue", twoConsFactory(consensus.TwoConsFromQueue), 3, 6},
		{"2-cons from f&add", twoConsFactory(consensus.TwoConsFromFetchAdd), 3, 6},
		// Bound 1: WRN_2 decides in its single WRN step.
		{"2-cons from WRN_2", twoConsFactory(consensus.TwoConsFromWRN2), 1, 2},
		// Bound 4: two rounds of Update+Scan. With two participants a
		// process conflicts at most once: a conflict means both saw
		// proposal 1, and they re-propose the 1st and 2nd free names
		// above it, which differ.
		{"renaming m=2 ids {1,0}", func() sim.Config {
			objects := map[string]sim.Object{}
			p := renaming.New(objects, "R", 2)
			return sim.Config{Objects: objects, Programs: []sim.Program{p.Program(1), p.Program(0)}}
		}, 4, 34},
		// Bound 2n = 4: one Update+Scan per floor, at most n floors.
		{"immediate snapshot n=2", func() sim.Config {
			objects := map[string]sim.Object{}
			pr := immediate.New(objects, "IS", 2)
			return sim.Config{Objects: objects, Programs: []sim.Program{pr.Program(0, "v0"), pr.Program(1, "v1")}}
		}, 4, 16},
		// Bound 6: with a single update, only one slot can move, so a
		// Scan ends by its third collect (3 collects × n reads), and the
		// Update is an undisturbed embedded Scan (2 collects) plus a
		// read and a write. The general AADGMS bound, (n+2)·n reads per
		// Scan and 2 more per Update, is 10 for n=2.
		{"snapshot Impl n=2 scan+update", func() sim.Config {
			objects := map[string]sim.Object{}
			s := snapshot.NewImpl(objects, "S", 2, 0)
			return sim.Config{Objects: objects, Programs: []sim.Program{
				func(ctx *sim.Ctx) sim.Value { return s.Scan(ctx) },
				func(ctx *sim.Ctx) sim.Value { s.Update(ctx, 1, 7); return nil },
			}}
		}, 6, 210},
		// Bound 1 + 2n = 5: announce, then read an announcement and
		// propose once per log cell. A proposer knows every earlier
		// cell, so no operation wins twice, and n one-shot operations
		// fill at most n cells.
		{"universal n=2 one inc each", func() sim.Config {
			objects := map[string]sim.Object{}
			u := universal.New(objects, "U", 2, 4, counter)
			progs := make([]sim.Program, 2)
			for p := range progs {
				p := p
				progs[p] = func(ctx *sim.Ctx) sim.Value { return u.NewSession(p).Apply(ctx, "inc") }
			}
			return sim.Config{Objects: objects, Programs: progs}
		}, 5, 40},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			most := 0
			count, err := modelcheck.Explore(c.f, 0, func(e modelcheck.Execution) error {
				if !e.Result.AllDone() {
					return fmt.Errorf("schedule %v: not every process finished: %v", e.Schedule, e.Result.Status)
				}
				steps := make([]int, len(e.Result.Status))
				for _, p := range e.Schedule {
					steps[p]++
					most = max(most, steps[p])
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if count != c.executions {
				t.Errorf("explored %d executions, want %d", count, c.executions)
			}
			if most != c.maxSteps {
				t.Errorf("max own steps = %d, want %d", most, c.maxSteps)
			}
		})
	}
}
