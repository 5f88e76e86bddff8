package modelcheck

import "testing"

// The AllocGate tests pin the allocation cost of the units the
// exhaustive and reduced engines pay once per explored node, measured
// exactly with testing.AllocsPerRun. A regression here is multiplied by
// nodes × depth in every exploration. The checks are exact per unit or
// relational across depths on purpose: absolute per-engine counts
// depend on the toolchain's map and escape implementation, and the
// benchmark already traces those per workload.

// stepSink keeps appendStep's result escaping, so the compiler cannot
// stack-allocate the copy once the call is inlined.
var stepSink []int

// TestAllocGateAppendStep: extending a schedule prefix costs exactly
// the one copy that keeps siblings from aliasing. The value is at least
// 256 on purpose: below 256 boxing an int into an interface is free,
// and below 10 fmt's rendered string is too, so an fmt.Sprint(v)
// planted in appendStep allocates nothing at the single-digit process
// ids real schedules carry and shows only at v >= 256 (box + string).
func TestAllocGateAppendStep(t *testing.T) {
	prefix := make([]int, 4)
	got := testing.AllocsPerRun(100, func() { stepSink = appendStep(prefix, 1000) })
	if got != 1 {
		t.Errorf("appendStep allocates %v times per call, want exactly 1", got)
	}
}

// gateReducer returns the E1 ring workload's reducer: three processes
// on one 1sWRN_3, reduced by the rotation group, with dedup on so
// signatures are live.
func gateReducer(t *testing.T) *reducer {
	t.Helper()
	red, err := newReducer(ringFactory(3), Reduced{Sym: CyclicRotations(3)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !red.dedup {
		t.Fatal("ring workload lost its state signatures; the gate would measure nothing")
	}
	return red
}

// TestAllocGateSignature: packing a configuration signature reuses the
// reducer's scratch, so once warm it allocates nothing.
func TestAllocGateSignature(t *testing.T) {
	red := gateReducer(t)
	red.sched = []int{0, 1, 2}
	res, err := red.runCurrent()
	if err != nil {
		t.Fatal(err)
	}
	red.signature(res)
	if got := testing.AllocsPerRun(100, func() { red.signature(res) }); got != 0 {
		t.Errorf("warm signature allocates %v times per call, want 0", got)
	}
}

// TestAllocGateRunCurrent: an arena replay pays only the factory's and
// the programs' own allocations, so its cost must not grow with the
// replayed prefix. Depth 1 is the reference; every deeper prefix must
// match it exactly.
func TestAllocGateRunCurrent(t *testing.T) {
	red := gateReducer(t)
	full := []int{0, 1, 2, 0, 1, 2}
	perRun := func(depth int) float64 {
		red.sched = full[:depth]
		replay := func() {
			if _, err := red.runCurrent(); err != nil {
				t.Fatal(err)
			}
		}
		replay()
		return testing.AllocsPerRun(20, replay)
	}
	base := perRun(1)
	for depth := 2; depth <= len(full); depth++ {
		if got := perRun(depth); got != base {
			t.Errorf("runCurrent allocates %v times at depth %d but %v at depth 1; replay cost must not grow with the prefix", got, depth, base)
		}
	}
}
