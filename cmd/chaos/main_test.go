package main

import (
	"strings"
	"testing"
)

func TestRunSweep(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "all", 0, 5, 0, false); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"crash-during-op", "crash-recovery", "stall", "adaptive", "composed",
		"native seed 0 ok",
		"crash-restart", "repeated-restart", "adaptive-restart",
		"control: plain WRN broken",
		"5 seeds swept clean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSweepOutputIsReproducible: two identical sweeps must print byte-
// identical output — the sweep is a pure function of its seed range.
func TestSweepOutputIsReproducible(t *testing.T) {
	var a, b strings.Builder
	if err := run(&a, "all", 3, 3, 0, true); err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	if err := run(&b, "all", 3, 3, 0, true); err != nil {
		t.Fatalf("second sweep: %v", err)
	}
	if a.String() != b.String() {
		t.Fatal("sweep output differs between identical invocations")
	}
}

// TestSweepParallelDeterministic: the sweep output is byte-identical for
// every worker count — per-seed buffers are replayed in seed order.
func TestSweepParallelDeterministic(t *testing.T) {
	var want strings.Builder
	if err := run(&want, "all", 0, 4, 1, true); err != nil {
		t.Fatalf("sequential sweep: %v", err)
	}
	for _, workers := range []int{2, 4, 8} {
		var got strings.Builder
		if err := run(&got, "all", 0, 4, workers, true); err != nil {
			t.Fatalf("workers=%d sweep: %v", workers, err)
		}
		if got.String() != want.String() {
			t.Errorf("workers=%d output differs from sequential", workers)
		}
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "quantum", 0, 1, 0, false); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
