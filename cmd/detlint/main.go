// Command detlint runs the repository's determinism and model-integrity
// analyzer suite (internal/lint) over the whole module and exits
// nonzero on findings. It is stdlib-only (go/parser, go/ast, go/types,
// go/importer) and type-checks every package of the module, so it also
// acts as a whole-module compile check.
//
// Usage:
//
//	go run ./cmd/detlint ./...
//
// Package patterns are accepted for familiarity but the driver always
// analyzes the module containing the working directory in full — the
// facadeparity rule is inherently whole-module. Findings print as
// file:line:col: rule: message. A finding is suppressed by an inline
//
//	//detlint:allow <rule>[,<rule>...] <justification>
//
// comment on the same or the preceding line; the justification is
// mandatory, and the allowaudit rule reports any justified allow that
// no longer suppresses a finding. See README.md "Static analysis" for
// the rule catalogue; -list-rules prints it. Every run executes the
// full suite.
//
// The par.ForEach determinism contract is not a detlint rule either:
// the worker-count cross-checks compare every parallel sweep against
// the sequential run, and nodeterminism flags an order-sensitive merge
// over a map.
//
// Allocation discipline on the per-node hot paths is not a detlint
// rule: the AllocGate tests in internal/modelcheck and internal/sim
// measure it exactly with testing.AllocsPerRun.
//
// The durable/volatile split of sim.Recoverable objects is not a
// detlint rule: TestCrashContract in internal/recoverable crashes each
// implementor and pins the state that survives.
//
// -json prints the report as JSON; -sarif writes a SARIF 2.1.0 log for
// code-scanning upload. Both formats are byte-stable across runs on an
// unchanged tree, and every finding carries a stable ID independent of
// line numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"detobj/internal/lint"
)

func main() {
	rootFlag := flag.String("root", "", "module root (default: nearest go.mod above the working directory)")
	listRules := flag.Bool("list-rules", false, "print the available rules (name and one-line doc, byte-stable order) and exit")
	jsonOut := flag.Bool("json", false, "print the report as JSON instead of text")
	sarifOut := flag.String("sarif", "", "also write a SARIF 2.1.0 log to the given path")
	flag.Parse()

	if *listRules {
		os.Stdout.WriteString(ruleList())
		return
	}

	root := *rootFlag
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fatal(err)
		}
	}

	analyzers := lint.Analyzers()
	mod, err := lint.Load(root)
	if err != nil {
		fatal(err)
	}
	report := lint.NewReport(root, lint.Run(mod, analyzers))

	if *sarifOut != "" {
		b, err := report.SARIF(analyzers)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*sarifOut, b, 0o644); err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		b, err := report.JSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
	} else {
		for _, f := range report.Findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", filepath.FromSlash(f.File), f.Line, f.Col, f.Rule, f.Msg)
		}
	}
	if len(report.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s)\n", len(report.Findings))
		os.Exit(1)
	}
}

// ruleList renders the registered rule set for -list-rules: one
// "name doc" line per rule in registry order, byte-stable run to run so
// the README rule-table check can diff against it.
func ruleList() string {
	var b strings.Builder
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(&b, "%-17s %s\n", a.Name, a.Doc)
	}
	return b.String()
}

// findModuleRoot walks upward from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("detlint: no go.mod above the working directory")
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
