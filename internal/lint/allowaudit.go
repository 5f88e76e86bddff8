package lint

// allowaudit keeps the escape hatch honest. Every //detlint:allow is a
// standing debt: a human judged a finding acceptable at some commit.
// Code moves on — the guarded access gains a mutex, the loop becomes
// bounded — and the annotation stays behind, silently licensed to
// suppress the *next* genuine finding on that line. This rule reports
// every justified allow that suppressed nothing during the run, so dead
// annotations are removed instead of accumulating.
//
// The rule is a driver special case, not an ordinary pass: staleness is
// only known after every other analyzer has run and marked the allows
// it consumed, so Run() in lint.go executes it last.

import (
	"fmt"
	"sort"
	"strings"
)

const allowAuditName = "allowaudit"

// AnalyzerAllowAudit returns the allowaudit rule. The returned Run is a
// stub: the driver recognizes the rule by name and produces its
// findings after suppression, via (*Module).staleAllows.
func AnalyzerAllowAudit() *Analyzer {
	return &Analyzer{
		Name: allowAuditName,
		Doc:  "detlint:allow annotations that no longer suppress any finding are dead and must be removed",
		Run:  func(*Module) []Diagnostic { return nil },
	}
}

// staleAllows reports every justified allow mark that went unused.
func (m *Module) staleAllows() []Diagnostic {
	var out []Diagnostic
	files := make([]string, 0, len(m.allows))
	for f := range m.allows {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		for _, a := range m.allows[f] {
			// Malformed marks are allowProblems' findings, not stale ones.
			if !a.justified || len(a.rules) == 0 || a.used {
				continue
			}
			out = append(out, Diagnostic{Pos: a.pos, Rule: allowAuditName,
				Msg: fmt.Sprintf("stale detlint:allow (%s): the annotation suppressed no finding this run; remove it or re-justify it",
					ruleList(a))})
		}
	}
	return out
}

func ruleList(a *allowMark) string {
	rules := make([]string, 0, len(a.rules))
	for r := range a.rules {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	return strings.Join(rules, ",")
}
