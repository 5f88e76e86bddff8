package lint

// cache.go makes detlint incremental. Loading and type-checking the
// whole module from source dominates a run's cost; the overwhelmingly
// common case — nothing changed since the last run — should not pay it.
// The cache key is a content hash over everything a run can observe:
// the detlint version, the selected rule names, go.mod, EXPERIMENTS.md
// (facadeparity reads it), and every .go file of the module including
// _test.go files (restartcoverage parses tests). If the key matches,
// the cached report — findings and all — is the run's result, bit for
// bit; detlint still exits nonzero on cached findings.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// CacheFileName is the cache's location relative to the module root.
const CacheFileName = ".detlint.cache"

// CachedRun is what the cache persists: the key it was computed under
// and the full report.
type CachedRun struct {
	// Key is the module content hash the report corresponds to.
	Key string `json:"key"`
	// Report is the complete run result.
	Report *Report `json:"report"`
}

// CacheKey computes the content hash of everything a run over the
// module at root with the given analyzers can observe.
func CacheKey(root string, analyzers []*Analyzer) (string, error) {
	return cacheKeyVersioned(root, analyzers, detlintVersion)
}

// cacheKeyVersioned is CacheKey with the version pinned explicitly, so
// the tests can prove a version bump invalidates every cached report.
func cacheKeyVersioned(root string, analyzers []*Analyzer, version string) (string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "version=%s\n", version)
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	fmt.Fprintf(h, "rules=%s\n", strings.Join(names, ","))

	var files []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasPrefix(name, ".") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	for _, extra := range []string{"go.mod", "EXPERIMENTS.md"} {
		p := filepath.Join(root, extra)
		if _, err := os.Stat(p); err == nil {
			files = append(files, p)
		}
	}
	sort.Strings(files)
	for _, path := range files {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return "", err
		}
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		fh := sha256.New()
		_, cpErr := io.Copy(fh, f)
		f.Close()
		if cpErr != nil {
			return "", cpErr
		}
		fmt.Fprintf(h, "%s %x\n", filepath.ToSlash(rel), fh.Sum(nil))
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// LoadCache returns the cached run stored under root, or nil if there is
// none or it is unreadable (a corrupt cache means a fresh run, never an
// error).
func LoadCache(root string) *CachedRun {
	data, err := os.ReadFile(filepath.Join(root, CacheFileName))
	if err != nil {
		return nil
	}
	var c CachedRun
	if err := json.Unmarshal(data, &c); err != nil || c.Key == "" || c.Report == nil {
		return nil
	}
	return &c
}

// SaveCache persists the run under root. Failures are returned but safe
// to ignore: the cache is an optimization, not a correctness layer.
func SaveCache(root string, c *CachedRun) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, CacheFileName), append(data, '\n'), 0o644)
}
