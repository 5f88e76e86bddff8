// Package lint is detlint's analyzer driver: a standard-library-only
// static-analysis layer that machine-checks the repository's determinism
// contract. Every theorem-shaped artifact in this module rests on the
// simulator's guarantees — lockstep scheduling, replayable schedules,
// objects that are pure sequential state machines (DESIGN.md §5) — and a
// stray wall-clock read or map iteration inside a decision path silently
// breaks replay and invalidates the model checker's exhaustive
// exploration. The analyzers here make those assumptions checkable on
// every build:
//
//   - nodeterminism: no wall clocks, unseeded randomness, multi-channel
//     selects, goroutine spawns, or order-sensitive map iteration inside
//     internal/ and cmd/.
//   - facadeparity: every exported constructor of a module referenced by
//     EXPERIMENTS.md's module index is reachable through the api.go
//     facade.
//   - allowaudit: every justified //detlint:allow must still suppress a
//     finding; stale annotations are findings themselves.
//
// Wait-freedom, the hang semantics of bounded-use objects and the
// durable/volatile split of sim.Recoverable objects are not estimated
// here: tests measure them on the running code (DESIGN.md §7.1, §8).
//
// The rules ride on a typed load (load.go, typeload.go) and resolve
// symbols through go/types, never through identifier text.
//
// A finding can be suppressed with an inline escape comment on the same
// or preceding line:
//
//	//detlint:allow <rule>[,<rule>...] <justification>
//
// The justification is mandatory; an allow comment without one is itself
// a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Rule names the analyzer that produced the finding.
	Rule string
	// Msg describes the finding.
	Msg string
}

// String renders the diagnostic as "file:line:col: rule: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Analyzer is one detlint rule: a named pass over a loaded module.
type Analyzer struct {
	// Name is the rule name used in diagnostics and allow comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run produces the analyzer's findings for the module.
	Run func(m *Module) []Diagnostic
}

// Analyzers returns the full detlint suite, in canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerNoDeterminism(),
		AnalyzerFacadeParity(),
		AnalyzerAllowAudit(),
	}
}

// Run executes the analyzers over the module, drops findings suppressed
// by justified //detlint:allow comments, appends a finding for every
// allow comment that lacks a justification, and returns the remainder
// sorted by position.
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	for _, marks := range m.allows {
		for _, a := range marks {
			a.used = false
		}
	}
	audit := false
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Name == allowAuditName {
			audit = true
			continue // runs after every suppression mark is in place
		}
		for _, d := range a.Run(m) {
			d.Rule = a.Name
			if !m.suppressed(d) {
				out = append(out, d)
			}
		}
	}
	if audit {
		out = append(out, m.staleAllows()...)
	}
	out = append(out, m.allowProblems()...)
	sort.Slice(out, func(i, j int) bool { return diagLess(out[i], out[j]) })
	return out
}

// diagLess is the canonical finding order: position, then rule, then
// message. The rule/message tiebreak makes reports byte-stable even when
// two analyzers fire on the same statement.
func diagLess(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	if a.Rule != b.Rule {
		return a.Rule < b.Rule
	}
	return a.Msg < b.Msg
}

// suppressed reports whether a justified allow comment covers the
// diagnostic: same file, naming the rule (or "all"), on the same line or
// the line directly above.
func (m *Module) suppressed(d Diagnostic) bool {
	for _, a := range m.allows[d.Pos.Filename] {
		if !a.justified {
			continue
		}
		if a.line != d.Pos.Line && a.line != d.Pos.Line-1 {
			continue
		}
		if a.rules[d.Rule] || a.rules["all"] {
			a.used = true
			return true
		}
	}
	return false
}

// allowProblems reports every allow comment that names no rule or
// carries no justification.
func (m *Module) allowProblems() []Diagnostic {
	var out []Diagnostic
	files := make([]string, 0, len(m.allows))
	for f := range m.allows {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		for _, a := range m.allows[f] {
			switch {
			case len(a.rules) == 0:
				out = append(out, Diagnostic{Pos: a.pos, Rule: "allow",
					Msg: "detlint:allow names no rule"})
			case !a.justified:
				out = append(out, Diagnostic{Pos: a.pos, Rule: "allow",
					Msg: "detlint:allow must carry an inline justification after the rule list"})
			}
		}
	}
	return out
}

// parentMap returns each node's syntactic parent within the file.
// Analyzers use it to whitelist expression contexts.
func parentMap(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
