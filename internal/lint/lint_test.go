package lint

import (
	"go/types"
	"slices"
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
			"detobj/internal/lintfixture/nodetbad":      "testdata/src/nodetbad",
			"detobj/internal/lintfixture/nodetok":       "testdata/src/nodetok",
			"detobj/internal/lintfixture/auditbad":      "testdata/src/auditbad",
			"detobj/internal/lintfixture/auditok":       "testdata/src/auditok",
			"detobj/internal/lintfixture/embedbad":      "testdata/src/embedbad",
			"detobj/internal/lintfixture/persistbad":    "testdata/src/persistbad",
			"detobj/internal/lintfixture/persistok":     "testdata/src/persistok",
			"detobj/internal/lintfixture/journalbad":    "testdata/src/journalbad",
			"detobj/internal/lintfixture/journalok":     "testdata/src/journalok",
			"detobj/internal/lintfixture/restartcovbad": "testdata/src/restartcovbad",
			"detobj/internal/lintfixture/restartcovok":  "testdata/src/restartcovok",
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
		{"persistbad", "persistsplit", "field count of persistbad.Cell (a sim.Recoverable implementor) has no //detlint:durable or //detlint:volatile annotation"},
		{"persistbad", "persistsplit", "field torn of persistbad.Cell carries both //detlint:durable and //detlint:volatile"},
		{"persistbad", "persistsplit", "OnCrash wipes field saved of persistbad.Cell, which is annotated //detlint:durable — amnesia"},
		{"persistbad", "persistsplit", "OnCrash never wipes field tmp of persistbad.Cell, which is annotated //detlint:volatile — ghost state"},
		{"persistbad", "persistsplit", "//detlint:volatile on field tmp of persistbad.Cell must carry an inline justification"},
		{"persistbad", "persistsplit", "//detlint:durable attaches to no field or type of a sim.Recoverable implementor"},
		{"journalbad", "journaldiscipline", "durable write to field count of journalbad.Log"},
		{"journalbad", "journaldiscipline", "response of journalbad.(Log).Aside does not derive from the journal"},
		{"journalbad", "journaldiscipline", "journal field rec of journalbad.Wiped is volatile"},
		{"journalbad", "journaldiscipline", "journaled type journalbad.Empty nominates no //detlint:journal fields"},
		{"journalbad", "journaldiscipline", "field j of journalbad.Unnominated is marked //detlint:journal but the type carries no //detlint:journaled nomination"},
		{"restartcovbad", "restartcoverage", "arms the amnesiac restart adversary NewRepeatedCrashRestart but never touches a recoverable constructor"},
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
	for _, clean := range []string{"nodetok", "auditok", "persistok", "journalok", "restartcovok"} {
		for _, d := range inFile(diags, clean) {
			t.Errorf("unexpected finding in clean fixture %s: %s", clean, d)
		}
	}
}

// TestPartialRunStaleJudgment pins the -rules contract for allowaudit:
// a mark is judged stale only when every rule it names actually ran.
// Selecting nodeterminism makes the auditbad mark judgeable (and stale),
// while a subset without nodeterminism proves nothing about it and must
// stay silent.
func TestPartialRunStaleJudgment(t *testing.T) {
	loadFixtures(t)
	judged := Run(fixtureMod, []*Analyzer{AnalyzerNoDeterminism(), AnalyzerAllowAudit()})
	foundStale := false
	for _, d := range inFile(judged, "auditbad") {
		if d.Rule == allowAuditName {
			foundStale = true
		}
	}
	if !foundStale {
		t.Error("subset including nodeterminism did not judge the auditbad mark stale")
	}
	for _, d := range inFile(judged, "auditok") {
		if d.Rule == allowAuditName {
			t.Errorf("live allow in auditok judged stale: %s", d)
		}
	}
	unjudged := Run(fixtureMod, []*Analyzer{AnalyzerPersistSplit(), AnalyzerAllowAudit()})
	for _, d := range unjudged {
		if d.Rule == allowAuditName {
			t.Errorf("subset without nodeterminism judged a mark anyway: %s", d)
		}
	}
	// Restore the shared fixture diagnostics' used-marks for later tests.
	fixtureDiags = Run(fixtureMod, Analyzers())
}

// TestCallGraphPromotedFanOut pins the interface fan-out through a
// promoted method: in the embedbad fixture, Obj.Propose calls
// Stepper.Step, and the only implementor gets Step from its embedded
// Base. persistsplit's OnCrash reachability and restartcoverage rely on
// this edge.
func TestCallGraphPromotedFanOut(t *testing.T) {
	loadFixtures(t)
	pkg := fixtureMod.Lookup("detobj/internal/lintfixture/embedbad")
	if pkg == nil {
		t.Fatal("embedbad fixture not loaded")
	}
	g := fixtureMod.CallGraph()
	method := func(typ, name string) *FuncNode {
		t.Helper()
		obj := pkg.Types.Scope().Lookup(typ)
		if obj == nil {
			t.Fatalf("embedbad has no type %s", typ)
		}
		n := g.NodeOf(lookupConcreteMethod(types.NewPointer(obj.Type()), name))
		if n == nil {
			t.Fatalf("callgraph has no node for (*%s).%s", typ, name)
		}
		return n
	}
	propose, step := method("Obj", "Propose"), method("Base", "Step")
	if !slices.Contains(propose.Callees, step) {
		var got []string
		for _, c := range propose.Callees {
			got = append(got, funcLabel(c))
		}
		t.Errorf("callees of %s = %v, want %s through the promoted method", funcLabel(propose), got, funcLabel(step))
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
