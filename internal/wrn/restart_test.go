package wrn

import (
	"testing"

	"detobj/internal/chaos"
	"detobj/internal/sim"
)

// TestAlg5NotRestartSafe is the negative control for the recoverable
// object work: Algorithm 5 tolerates crash-stop failures (crash_test.go)
// but was never designed for amnesiac crash-restart. A restarted
// incarnation forgets its doorway passage and its announced snapshot
// view, re-enters from the top, and re-applies durable work — visible as
// a victim that writes its R/O announcements more than once, or as an
// execution that no longer terminates. This test pins that weakness
// down: across a sweep of crash points at least one must break, so the
// restart adversary provably distinguishes Algorithm 5 from the
// recoverable WRN in internal/recoverable. If every crash point ever
// comes back clean, either the adversary lost its teeth or Alg 5 grew
// restart safety — both worth a loud failure.
func TestAlg5NotRestartSafe(t *testing.T) {
	const k, crashPoints = 3, 9
	broken := 0
	for crashAt := 0; crashAt < crashPoints; crashAt++ {
		objects := map[string]sim.Object{}
		impl := NewImpl(objects, "LW", k)
		progs := make([]sim.Program, k)
		for i := 0; i < k; i++ {
			i := i
			progs[i] = func(ctx *sim.Ctx) sim.Value {
				return impl.WRN(ctx, i, 100+i)
			}
		}
		r := chaos.NewReport(int64(crashAt))
		// Deliberate negative control: restarting plain Algorithm 5
		// proves it loses its power under amnesia, the contrast E19
		// depends on.
		res, err := sim.Run(sim.Config{
			Objects:      objects,
			Programs:     progs,
			Scheduler:    chaos.NewCrashRestart(sim.NewRoundRobin(), r, 0, crashAt, 0),
			MaxSteps:     1 << 16,
			VerifyReplay: true,
		})
		if err != nil {
			t.Fatalf("crashAt=%d: %v", crashAt, err)
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
	if broken == 0 {
		t.Fatalf("Algorithm 5 survived all %d amnesiac crash points; the restart adversary should break it", crashPoints)
	}
	t.Logf("Algorithm 5 broken at %d/%d amnesiac crash points (expected: not restart-safe)", broken, crashPoints)
}
