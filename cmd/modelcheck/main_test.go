package main

import (
	"strings"
	"testing"
)

func TestRunAll(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "all", false); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := b.String()
	// E6 verdicts: the sub-consensus objects pass, the consensus-grade
	// objects fail.
	for _, obj := range []string{"register", "WRN_3", "WRN_4", "WRN_5", "1sWRN_3"} {
		if !rowHas(out, obj, "PASS") {
			t.Errorf("%s row is not PASS:\n%s", obj, out)
		}
	}
	for _, obj := range []string{"WRN_2=SWAP", "swap", "test-and-set", "consensus-cell"} {
		if !rowHas(out, obj, "FAIL") {
			t.Errorf("%s row is not FAIL:\n%s", obj, out)
		}
	}
	// E11: the three protocols agree; the naive one does not.
	if !rowHas(out, "2-cons from SWAP", "true") {
		t.Error("SWAP consensus row not agreeing")
	}
	if !rowHas(out, "3 procs on WRN_2", "false") {
		t.Error("naive 3-process row should disagree")
	}
	if strings.Contains(out, "UNEXPECTED") {
		t.Errorf("verdicts diverged from the expected classification:\n%s", out)
	}
}

func rowHas(out, prefix, want string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) && strings.Contains(line, want) {
			return true
		}
	}
	return false
}

func TestRunSelection(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "e11", false); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(b.String(), "E6") {
		t.Error("e11 selection also ran e6")
	}
	if err := run(&b, "bogus", false); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunStats: -stats runs the reduction cross-check and every row must
// match the exhaustive oracle.
func TestRunStats(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "e11", true); err != nil {
		t.Fatalf("run -stats: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "E11r") || !strings.Contains(out, "E4r") {
		t.Fatalf("stats tables missing:\n%s", out)
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("reduced engines diverge from the oracle:\n%s", out)
	}
	if !rowHas(out, "2-cons from SWAP", "match") || !rowHas(out, "3 procs on WRN_2", "match") {
		t.Errorf("E11r rows not matching:\n%s", out)
	}
	if !rowHas(out, "k=3 procs=5", "match") {
		t.Errorf("E4r procs=5 row missing:\n%s", out)
	}
}
