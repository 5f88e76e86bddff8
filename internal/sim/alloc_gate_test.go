package sim

import "testing"

// allocsPerArenaRun measures one traced, arena-backed Run of two
// processes making `steps` object invocations between them, after a
// warm-up run has sized the arena.
func allocsPerArenaRun(t *testing.T, steps int) float64 {
	t.Helper()
	var arena RunArena
	run := func() {
		cfg := Config{
			Objects:  map[string]Object{"C": &testCounter{}},
			Programs: []Program{incThenRead(steps/2 - 1), incThenRead(steps/2 - 1)},
			Arena:    &arena,
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	run()
	return testing.AllocsPerRun(50, run)
}

// TestAllocGateRunArena: with an arena, a run's scheduler rounds, trace
// events and result buffers live in recycled storage, so its allocation
// count is independent of its length. The check is relational on
// purpose: the absolute per-run count depends on the toolchain's
// goroutine and map implementation.
func TestAllocGateRunArena(t *testing.T) {
	short, long := allocsPerArenaRun(t, 8), allocsPerArenaRun(t, 64)
	if short != long {
		t.Errorf("arena Run allocates %v times at 8 steps but %v at 64; per-step cost must be zero", short, long)
	}
}
