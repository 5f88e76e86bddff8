package lint

import (
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture module is the real repository with the testdata packages
// grafted in under internal/ (so the scope rules apply to them). Loading
// type-checks the whole module through the source importer, which takes
// a few seconds — share one load across all tests.
var (
	fixtureOnce  sync.Once
	fixtureMod   *Module
	fixtureDiags []Diagnostic
	fixtureErr   error
)

func loadFixtures(t *testing.T) []Diagnostic {
	t.Helper()
	fixtureOnce.Do(func() {
		m, err := LoadWithExtra("../..", map[string]string{
			"detobj/internal/lintfixture/nodetbad": "testdata/src/nodetbad",
			"detobj/internal/lintfixture/nodetok":  "testdata/src/nodetok",
			"detobj/internal/lintfixture/auditbad": "testdata/src/auditbad",
			"detobj/internal/lintfixture/auditok":  "testdata/src/auditok",
		})
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureMod = m
		fixtureDiags = Run(m, Analyzers())
	})
	if fixtureErr != nil {
		t.Fatalf("loading module with fixtures: %v", fixtureErr)
	}
	return fixtureDiags
}

// inFile filters diagnostics to those whose position is in a file whose
// path contains the fragment.
func inFile(diags []Diagnostic, fragment string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, fragment) {
			out = append(out, d)
		}
	}
	return out
}

func TestFixturesFlagSeededViolations(t *testing.T) {
	diags := loadFixtures(t)
	expect := []struct {
		file, rule, msg string
	}{
		{"nodetbad", "nodeterminism", "time.Now"},
		{"nodetbad", "nodeterminism", "time.Since"},
		{"nodetbad", "nodeterminism", "rand.Intn"},
		{"nodetbad", "nodeterminism", "select over multiple channels"},
		{"nodetbad", "nodeterminism", "goroutine spawn"},
		{"nodetbad", "nodeterminism", "order-sensitive body"},
		{"nodetbad", "nodeterminism", "never sorts"},
		{"nodetbad", "allow", "justification"},
		{"auditbad", "allowaudit", "stale detlint:allow (nodeterminism)"},
	}
	for _, want := range expect {
		found := false
		for _, d := range inFile(diags, want.file) {
			if d.Rule == want.rule && strings.Contains(d.Msg, want.msg) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s finding matching %q in %s fixture", want.rule, want.msg, want.file)
		}
	}
}

func TestFixturesAcceptSafeIdioms(t *testing.T) {
	diags := loadFixtures(t)
	for _, clean := range []string{"nodetok", "auditok"} {
		for _, d := range inFile(diags, clean) {
			t.Errorf("unexpected finding in clean fixture %s: %s", clean, d)
		}
	}
}

// TestFindingOrderTiebreak pins the canonical finding order: position
// first, then rule, then message — so two analyzers firing on the same
// statement always report in the same order.
func TestFindingOrderTiebreak(t *testing.T) {
	mk := func(file string, line int, rule, msg string) Diagnostic {
		d := Diagnostic{Rule: rule, Msg: msg}
		d.Pos.Filename = file
		d.Pos.Line = line
		return d
	}
	diags := []Diagnostic{
		mk("b.go", 1, "z", "m"),
		mk("a.go", 2, "nodeterminism", "beta"),
		mk("a.go", 2, "facadeparity", "gamma"),
		mk("a.go", 2, "facadeparity", "alpha"),
		mk("a.go", 1, "zzz", "last position wins over rule"),
	}
	sort.Slice(diags, func(i, j int) bool { return diagLess(diags[i], diags[j]) })
	got := make([]string, len(diags))
	for i, d := range diags {
		got[i] = d.Pos.Filename + "|" + d.Rule + "|" + d.Msg
	}
	want := []string{
		"a.go|zzz|last position wins over rule",
		"a.go|facadeparity|alpha",
		"a.go|facadeparity|gamma",
		"a.go|nodeterminism|beta",
		"b.go|z|m",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("order[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestRealTreeIsClean(t *testing.T) {
	// The repository itself must pass its own linter: every remaining
	// exemption carries a justified //detlint:allow.
	diags := loadFixtures(t)
	for _, d := range diags {
		if !strings.Contains(d.Pos.Filename, "testdata") {
			t.Errorf("finding in the real tree: %s", d)
		}
	}
}

func TestFacadeParityFixture(t *testing.T) {
	m, err := Load("testdata/facademod")
	if err != nil {
		t.Fatalf("loading facade fixture module: %v", err)
	}
	diags := Run(m, []*Analyzer{AnalyzerFacadeParity()})
	var orphaned []string
	for _, d := range diags {
		if d.Rule != "facadeparity" {
			t.Errorf("unexpected rule %s: %s", d.Rule, d)
			continue
		}
		orphaned = append(orphaned, d.Msg)
	}
	if len(orphaned) != 1 || !strings.Contains(orphaned[0], "NewOrphan") {
		t.Errorf("facadeparity findings = %q, want exactly one naming NewOrphan", orphaned)
	}
	for _, msg := range orphaned {
		if strings.Contains(msg, "NewGood") || strings.Contains(msg, "NewHidden") {
			t.Errorf("facadeparity flagged a reachable or annotated constructor: %s", msg)
		}
	}
}
