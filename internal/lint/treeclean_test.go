package lint_test

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"zeus/internal/lint"
	"zeus/internal/lint/loader"
)

// TestZeuslintTreeClean runs every analyzer over the whole module and asserts
// zero findings: the concurrency contracts hold tree-wide, and any new
// violation (or unwaived exception) fails the build here and in CI's lint
// job. This is the same pass `go run ./cmd/zeuslint ./...` performs.
func TestZeuslintTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree type-check is slow; run without -short")
	}
	root := moduleRoot(t)
	pkgs, err := loader.Load(root, "./...")
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader returned no packages")
	}
	findings, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// moduleRoot locates the module directory via go env GOMOD.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" {
		t.Fatal("not in a module")
	}
	return filepath.Dir(gomod)
}

// TestEveryInternalPackageIsReached: no package sits off every path. Each
// zeus/internal/... package must be reachable from the module root, a command,
// an example or the repository benchmark over the module's import edges, test
// imports counted — so a package only its own tests and a sibling nobody
// imports keep alive (the §3.1 load balancer and its KV were that) fails here
// instead of being carried. Lint fixtures live under testdata and are not
// packages to `go list`.
func TestEveryInternalPackageIsReached(t *testing.T) {
	cmd := exec.Command("go", "list", "-json=ImportPath,Imports,TestImports,XTestImports", "./...")
	cmd.Dir = moduleRoot(t)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	edges := make(map[string][]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			ImportPath                         string
			Imports, TestImports, XTestImports []string
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		edges[p.ImportPath] = append(append(p.Imports, p.TestImports...), p.XTestImports...)
	}
	reached := make(map[string]bool)
	var visit func(string)
	visit = func(pkg string) {
		if _, ours := edges[pkg]; !ours || reached[pkg] {
			return
		}
		reached[pkg] = true
		for _, imp := range edges[pkg] {
			visit(imp)
		}
	}
	for pkg := range edges {
		if pkg == "zeus" || pkg == "zeus/benchmark" || strings.HasPrefix(pkg, "zeus/cmd/") || strings.HasPrefix(pkg, "zeus/examples/") {
			visit(pkg)
		}
	}
	if !reached["zeus"] || !reached["zeus/benchmark"] || !reached["zeus/internal/core"] {
		t.Fatalf("the walk did not start: %d of %d packages reached", len(reached), len(edges))
	}
	for pkg := range edges {
		if strings.HasPrefix(pkg, "zeus/internal/") && !reached[pkg] {
			t.Errorf("%s is imported by nothing the module root, cmd/, examples/ or benchmark/ reaches", pkg)
		}
	}
}
