package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReportByteStable runs the full suite twice over the same module
// and asserts both machine-readable formats come out byte-identical:
// CI diffs the SARIF between runs, and the cache replays reports
// verbatim, so any map-order leak in an analyzer or in the marshaling
// is a bug here before it is a flake there.
func TestReportByteStable(t *testing.T) {
	loadFixtures(t)
	runs := make([][2][]byte, 2)
	for i := range runs {
		report := NewReport(fixtureMod.Root, Run(fixtureMod, Analyzers()))
		j, err := report.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		s, err := report.SARIF(Analyzers())
		if err != nil {
			t.Fatalf("SARIF: %v", err)
		}
		runs[i] = [2][]byte{j, s}
	}
	if !bytes.Equal(runs[0][0], runs[1][0]) {
		t.Error("JSON output differs between two runs over the same module")
	}
	if !bytes.Equal(runs[0][1], runs[1][1]) {
		t.Error("SARIF output differs between two runs over the same module")
	}
}

// TestFindingIDs pins the stable-ID contract: IDs are deterministic,
// unique across the report, and independent of line numbers — two
// identical messages in one file get distinct IDs via the occurrence
// index, and moving a finding down a file must not change its ID.
func TestFindingIDs(t *testing.T) {
	mk := func(line int, rule, file, msg string) Diagnostic {
		d := Diagnostic{Rule: rule, Msg: msg}
		d.Pos.Filename = file
		d.Pos.Line = line
		return d
	}
	a := NewReport("/mod", []Diagnostic{
		mk(10, "r1", "/mod/a.go", "same message"),
		mk(20, "r1", "/mod/a.go", "same message"),
		mk(30, "r2", "/mod/b.go", "other"),
	})
	seen := make(map[string]bool)
	for _, f := range a.Findings {
		if len(f.ID) != 12 {
			t.Errorf("finding ID %q: want 12 hex digits", f.ID)
		}
		if seen[f.ID] {
			t.Errorf("duplicate finding ID %q", f.ID)
		}
		seen[f.ID] = true
	}
	// Same findings on different lines: identical IDs.
	b := NewReport("/mod", []Diagnostic{
		mk(110, "r1", "/mod/a.go", "same message"),
		mk(220, "r1", "/mod/a.go", "same message"),
		mk(330, "r2", "/mod/b.go", "other"),
	})
	for i := range a.Findings {
		if a.Findings[i].ID != b.Findings[i].ID {
			t.Errorf("finding %d: ID changed with line number: %s vs %s",
				i, a.Findings[i].ID, b.Findings[i].ID)
		}
	}
	// Paths are relativized and slash-separated.
	if a.Findings[0].File != "a.go" {
		t.Errorf("file = %q, want module-relative %q", a.Findings[0].File, "a.go")
	}
}

// TestCacheRoundTrip drives the cache against a scratch module: the key
// is stable over an unchanged tree, changes when any source file
// changes, and the cached report survives a save/load cycle. A corrupt
// cache file must read as a miss, never an error.
func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tiny\n\ngo 1.22\n")
	write("tiny.go", "package tiny\n\nfunc F() int { return 1 }\n")

	k1, err := CacheKey(dir, Analyzers())
	if err != nil {
		t.Fatalf("CacheKey: %v", err)
	}
	k2, err := CacheKey(dir, Analyzers())
	if err != nil {
		t.Fatalf("CacheKey: %v", err)
	}
	if k1 != k2 {
		t.Errorf("cache key unstable over unchanged tree: %s vs %s", k1, k2)
	}
	if sub, err := CacheKey(dir, Analyzers()[:1]); err != nil || sub == k1 {
		t.Errorf("cache key ignores the rule set (err=%v)", err)
	}

	report := NewReport(dir, nil)
	if err := SaveCache(dir, &CachedRun{Key: k1, Report: report}); err != nil {
		t.Fatalf("SaveCache: %v", err)
	}
	got := LoadCache(dir)
	if got == nil || got.Key != k1 {
		t.Fatalf("LoadCache = %+v, want key %s", got, k1)
	}
	if got.Report == nil || got.Report.Version != detlintVersion {
		t.Errorf("cached report = %+v, want version %s", got.Report, detlintVersion)
	}

	write("tiny.go", "package tiny\n\nfunc F() int { return 2 }\n")
	k3, err := CacheKey(dir, Analyzers())
	if err != nil {
		t.Fatalf("CacheKey: %v", err)
	}
	if k3 == k1 {
		t.Error("cache key unchanged after a source edit")
	}

	write(CacheFileName, "not json{")
	if c := LoadCache(dir); c != nil {
		t.Errorf("corrupt cache read as %+v, want miss", c)
	}
}

// TestCacheKeyVersionBump: bumping the detlint version must change the
// cache key of an otherwise untouched tree, so stale caches
// self-invalidate on upgrade.
func TestCacheKeyVersionBump(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module cachetest\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte("package cachetest\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	analyzers := Analyzers()
	current, err := CacheKey(dir, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := cacheKeyVersioned(dir, analyzers, detlintVersion)
	if err != nil {
		t.Fatal(err)
	}
	if current != pinned {
		t.Error("CacheKey does not pin the current version")
	}
	old, err := cacheKeyVersioned(dir, analyzers, "detlint/3.0.0")
	if err != nil {
		t.Fatal(err)
	}
	if old == current {
		t.Error("version bump did not change the cache key")
	}
}
