// Package linttest is a minimal analysistest-style harness for the zeuslint
// analyzers: it loads a fixture package from internal/lint/testdata, runs one
// analyzer over it through lint.Run (so //lint:allow waivers apply exactly as
// in production), and matches the findings against `// want` comments.
//
// A want comment annotates the line the diagnostic lands on and carries a
// backquoted regular expression the message must match:
//
//	o.DataLocked()[0] = 1 // want `in-place element write`
//
// Unmatched wants and unexpected findings both fail the test, which makes the
// comments the committed golden diagnostics for each analyzer.
package linttest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"zeus/internal/lint"
	"zeus/internal/lint/analysis"
	"zeus/internal/lint/loader"
)

// want is one expected diagnostic: a file/line anchor plus a message regexp.
type want struct {
	file    string // base name
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads testdata/<dir> (relative to internal/lint), runs a through
// lint.Run, and matches findings against the fixture's want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	run(t, dir, a, nil)
}

// RunFiles is Run restricted to the named files of testdata/<dir>: findings
// and wants elsewhere in the fixture are ignored. It pins one row of an
// analyzer whose fixture spreads its rows over several files.
func RunFiles(t *testing.T, dir string, a *analysis.Analyzer, files ...string) {
	t.Helper()
	if len(files) == 0 {
		t.Fatal("RunFiles needs at least one file")
	}
	only := make(map[string]bool, len(files))
	for _, f := range files {
		only[f] = true
	}
	run(t, dir, a, only)
}

// run matches a's findings on testdata/<dir> against its wants, counting only
// the files in only (every file when only is nil).
func run(t *testing.T, dir string, a *analysis.Analyzer, only map[string]bool) {
	t.Helper()
	pkg := loadPkg(t, dir)
	in := func(filename string) bool { return only == nil || only[filepath.Base(filename)] }
	present := make(map[string]bool, len(pkg.Files))
	for _, file := range pkg.Files {
		present[filepath.Base(pkg.Fset.Position(file.Pos()).Filename)] = true
	}
	for name := range only {
		if !present[name] {
			t.Fatalf("fixture %s has no file %s", dir, name)
		}
	}
	findings := runAnalyzer(t, pkg, a)
	wants := collectWants(t, pkg)
	for _, f := range findings {
		if !in(f.Pos.Filename) {
			continue
		}
		if w := match(wants, f.Pos.Filename, f.Pos.Line, f.Message); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("unexpected finding: %s", f)
	}
	for _, w := range wants {
		if !w.matched && in(w.file) {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re)
		}
	}
}

// Findings loads testdata/<dir> and returns the raw lint.Run output for a —
// for tests that assert on rules directly (e.g. the malformed-waiver case).
func Findings(t *testing.T, dir string, a *analysis.Analyzer) []lint.Finding {
	t.Helper()
	return runAnalyzer(t, loadPkg(t, dir), a)
}

// loadPkg type-checks the fixture once; wants and findings both come from it.
func loadPkg(t *testing.T, dir string) *loader.Package {
	t.Helper()
	pkg, err := loader.LoadDir(testdataDir(t, dir), "zeus/internal/lint/testdata/"+dir)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	return pkg
}

func runAnalyzer(t *testing.T, pkg *loader.Package, a *analysis.Analyzer) []lint.Finding {
	t.Helper()
	findings, err := lint.Run([]*loader.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, pkg.Path, err)
	}
	return findings
}

// testdataDir resolves internal/lint/testdata/<dir> from this source file's
// location, so the harness works regardless of the test's working directory.
func testdataDir(t *testing.T, dir string) string {
	t.Helper()
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Join(filepath.Dir(filepath.Dir(self)), "testdata", dir)
}

// collectWants parses the fixture's `// want` comments.
func collectWants(t *testing.T, pkg *loader.Package) []*want {
	t.Helper()
	var wants []*want
	for _, file := range pkg.Files {
		name := filepath.Base(pkg.Fset.Position(file.Pos()).Filename)
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, found := strings.CutPrefix(c.Text, "// want ")
				if !found {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				re, err := parseWant(strings.TrimSpace(text))
				if err != nil {
					t.Fatalf("%s:%d: %v", name, pos.Line, err)
				}
				wants = append(wants, &want{file: name, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// parseWant extracts the backquoted regexp from a want comment body.
func parseWant(s string) (*regexp.Regexp, error) {
	if len(s) < 2 || s[0] != '`' || s[len(s)-1] != '`' {
		return nil, fmt.Errorf("want comment must carry a backquoted regexp, got %q", s)
	}
	re, err := regexp.Compile(s[1 : len(s)-1])
	if err != nil {
		return nil, fmt.Errorf("bad want regexp %q: %v", s, err)
	}
	return re, nil
}

// match finds the first unmatched want on the finding's file/line whose
// regexp matches the message.
func match(wants []*want, filename string, line int, msg string) *want {
	base := filepath.Base(filename)
	for _, w := range wants {
		if !w.matched && w.file == base && w.line == line && w.re.MatchString(msg) {
			return w
		}
	}
	return nil
}
