package main

import (
	"strings"
	"testing"
)

func TestRunAllExperiments(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "all", 20, 1, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := b.String()
	for _, want := range []string{"E1", "E3", "E4", "E5", "E9", "exhaustive"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("experiments reported failures:\n%s", out)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "e1", 10, 1, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(b.String(), "E3") {
		t.Error("e1 selection also ran e3")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "e99", 10, 1, 0); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunParallelDeterministic: the result tables must be byte-identical
// for every worker count — run r always uses seed+r, and aggregation
// happens in run order.
func TestRunParallelDeterministic(t *testing.T) {
	var want strings.Builder
	if err := run(&want, "all", 15, 7, 1); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	for _, workers := range []int{2, 4, 8} {
		var got strings.Builder
		if err := run(&got, "all", 15, 7, workers); err != nil {
			t.Fatalf("workers=%d run: %v", workers, err)
		}
		if got.String() != want.String() {
			t.Errorf("workers=%d output differs from sequential", workers)
		}
	}
}

// TestE1NoViolations parses the E1 table and asserts the violations column
// is all zeros and max-distinct stays within the bound.
func TestE1NoViolations(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "e1", 50, 3, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(b.String(), "\n")
	dataRows := 0
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) != 6 || fields[0] == "k" {
			continue
		}
		dataRows++
		if fields[5] != "0" {
			t.Errorf("violations in row: %s", line)
		}
		if fields[3] > fields[4] {
			t.Errorf("max-distinct exceeds bound: %s", line)
		}
	}
	if dataRows != 6 {
		t.Errorf("parsed %d data rows, want 6 (k = 3..8)", dataRows)
	}
}

func TestPickIDsDistinct(t *testing.T) {
	ids := pickIDs(4, 32)
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 0 || id >= 32 || seen[id] {
			t.Fatalf("bad ids %v", ids)
		}
		seen[id] = true
	}
}
