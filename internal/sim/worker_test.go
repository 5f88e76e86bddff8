package sim

import (
	"fmt"
	"strings"
	"testing"

	"detobj/internal/par"
)

// createdWorkers reads how many worker coroutines the package has made.
func createdWorkers() int {
	idle.Lock()
	defer idle.Unlock()
	return idle.created
}

// lifecycleConfig builds run i of a cycle covering every way an
// incarnation can end: done (with trace marks), hung, stopped, program
// panic, crashed for good, and crashed then restarted through recovery.
// VerifyReplay is on throughout, so replay workers are exercised too.
func lifecycleConfig(i int) Config {
	seed := int64(i)
	cfg := Config{VerifyReplay: true}
	switch i % 6 {
	case 0:
		marked := func(ctx *Ctx) Value {
			ctx.BeginOp("C", "twice")
			ctx.Invoke("C", "inc")
			ctx.Invoke("C", "inc")
			ctx.EndOp("C", "twice", nil)
			return ctx.Invoke("C", "read")
		}
		cfg.Objects = map[string]Object{"C": &testCounter{}}
		cfg.Programs = []Program{marked, incThenRead(3), marked}
		cfg.Scheduler = NewRandom(seed)
	case 1:
		cfg.Objects = map[string]Object{"C": &testCounter{budget: 3}}
		cfg.Programs = []Program{incThenRead(4), incThenRead(4)}
		cfg.Scheduler = NewRandom(seed)
	case 2:
		cfg.Objects = map[string]Object{"C": &testCounter{}}
		cfg.Programs = []Program{incThenRead(10), incThenRead(10)}
		cfg.Scheduler = NewFixed(0, 1, 0)
	case 3:
		cfg.Objects = map[string]Object{"C": &testCounter{}}
		cfg.Programs = []Program{incThenRead(5), func(ctx *Ctx) Value {
			ctx.Invoke("C", "inc")
			panic("boom")
		}}
		cfg.Scheduler = NewRandom(seed)
	case 4:
		cfg.Objects = map[string]Object{"C": &testDurableCell{}}
		cfg.Programs = []Program{stageFlushRead(1), stageFlushRead(2)}
		cfg.Scheduler = &scriptInjector{inner: NewRandom(seed), victim: 1, crashAt: 1, noRestart: true}
	case 5:
		cfg.Objects = map[string]Object{"C": &testDurableCell{}}
		cfg.Programs = []Program{stageFlushRead(1), stageFlushRead(2)}
		cfg.Scheduler = &scriptInjector{inner: NewRandom(seed), victim: 0, crashAt: 1, window: 1}
		cfg.Recovery = func(ctx *Ctx) { ctx.Invoke("C", "note", ctx.Invoke("C", "peek")) }
	}
	return cfg
}

// lifecycleOutcome runs lifecycleConfig(i) and renders everything the
// run reports, error included.
func lifecycleOutcome(i int) string {
	res, err := Run(lifecycleConfig(i))
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%v %v %v %d\n%v", res.Status, res.Outputs, res.Restarts, res.Steps, res.Trace)
}

// TestWorkersReused pins the property that keeps the race-enabled test
// binaries small: once the idle list is warm, runs, restarts and replay
// verification create no new coroutines.
func TestWorkersReused(t *testing.T) {
	for i := 0; i < 6; i++ {
		lifecycleOutcome(i)
	}
	// The panic value must be read before the worker is reused.
	if out := lifecycleOutcome(3); !strings.Contains(out, "process 1: boom") {
		t.Errorf("program panic reported as %q, want the panic value", out)
	}
	before := createdWorkers()
	for i := 0; i < 1000; i++ {
		lifecycleOutcome(i)
	}
	if n := createdWorkers() - before; n != 0 {
		t.Errorf("1000 warm runs created %d worker coroutines, want 0", n)
	}
}

// TestConcurrentRunsMatchSequential hands workers between goroutines
// through the idle list; the results must not depend on it, and the list
// grows only by the workers the runs in flight held at once.
func TestConcurrentRunsMatchSequential(t *testing.T) {
	const runs, inFlight = 240, 4
	want := make([]string, runs)
	for i := range want {
		want[i] = lifecycleOutcome(i)
	}
	before := createdWorkers()
	got := make([]string, runs)
	if err := par.ForEach(runs, inFlight, func(i int) error {
		got[i] = lifecycleOutcome(i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("run %d differs under concurrency:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	// A run holds one worker per process (at most 3 here) and, while it
	// verifies its replay, one more.
	if n := createdWorkers() - before; n > inFlight*(3+1) {
		t.Errorf("%d concurrent runs created %d worker coroutines, want at most %d", inFlight, n, inFlight*(3+1))
	}
}

// TestAbortUnwindsRecoveringProgram: a program that recovers the abort
// signal cannot keep its incarnation alive. Every further Invoke panics
// again and marks are dropped, so whatever the program does next, the
// process ends stopped and its worker returns to the idle list clean.
func TestAbortUnwindsRecoveringProgram(t *testing.T) {
	// swallowing invokes five times, recovering every panic; the run
	// stops after two steps, so the third Invoke is aborted.
	swallowing := func(ctx *Ctx) {
		for i := 0; i < 5; i++ {
			func() {
				defer func() { _ = recover() }()
				ctx.Invoke("C", "inc")
			}()
		}
	}
	programs := []struct {
		name string
		prog Program
	}{
		{"keeps invoking", func(ctx *Ctx) Value {
			swallowing(ctx)
			ctx.EndOp("C", "swallowed", nil)
			return ctx.Invoke("C", "read")
		}},
		{"returns", func(ctx *Ctx) Value {
			swallowing(ctx)
			return "escaped"
		}},
		{"panics", func(ctx *Ctx) Value {
			swallowing(ctx)
			panic("after abort")
		}},
	}
	for _, tc := range programs {
		t.Run(tc.name, func(t *testing.T) {
			c := &testCounter{}
			res, err := Run(Config{
				Objects:   map[string]Object{"C": c},
				Programs:  []Program{tc.prog},
				Scheduler: NewFixed(0, 0),
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Status[0] != StatusStopped || res.Outputs[0] != nil || c.n != 2 || len(res.Trace.Events) != 2 {
				t.Errorf("status %v, output %v, %d incs, %d events; want stopped, no output, 2 incs, 2 events",
					res.Status[0], res.Outputs[0], c.n, len(res.Trace.Events))
			}
			idle.Lock()
			defer idle.Unlock()
			for _, w := range idle.ws {
				if w.abort || w.prog != nil || w.recovery != nil || w.ctx != (Ctx{}) || w.msg.kind != msgDone || w.msg.out != nil {
					t.Fatalf("idle worker not reset: abort=%v ctx=%+v msg=%+v", w.abort, w.ctx, w.msg)
				}
			}
		})
	}
}
