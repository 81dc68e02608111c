// Package loader loads and type-checks Go packages for zeuslint using only
// the standard library: package discovery shells out to `go list -json`
// (the same resolver the build uses, so build tags and file exclusions
// match), parsing uses go/parser, and type-checking uses go/types. Imports
// are not type-checked from source: `go list -export` names the compiler's
// export data for every dependency (building what the build cache lacks —
// the tree builds before it is linted, so normally nothing), and one gc
// importer per process reads it. A package a hundred others import, the
// standard library included, is therefore loaded once per process, not once
// per Load or LoadDir call. No network is required.
//
// Test files (*_test.go) are deliberately excluded: zeuslint enforces the
// engine's runtime contracts on shipped code, while tests routinely build
// throwaway objects they own exclusively (and the analyzers' own fixtures
// violate every contract on purpose).
package loader

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path (e.g. zeus/internal/commit)
	Name  string // package name
	Dir   string // directory holding the sources
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string // file holding the compiled package's export data
	DepOnly    bool   // listed as a dependency, not matched by a pattern
}

// The process-wide import state, guarded by mu: every load shares one
// FileSet and one importer, which keeps each imported package it has read.
// exportFile is a pure cache of what `go list -export` reported.
var (
	mu         sync.Mutex
	fset       = token.NewFileSet()
	exportFile = make(map[string]string) // import path → export data file
	imp        = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exportFile[path]
		if !ok {
			return nil, fmt.Errorf("loader: no export data listed for %s", path)
		}
		return os.Open(f)
	})
)

// list runs `go list -export -deps` for patterns relative to dir, records
// every listed package's export data and returns the packages in dependency
// order.
func list(dir string, patterns ...string) ([]listedPkg, error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("loader: go list %s: %s", strings.Join(patterns, " "), msg)
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var lp listedPkg
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %v", err)
		}
		if lp.Export != "" {
			exportFile[lp.ImportPath] = lp.Export
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// Load resolves patterns (e.g. "./...") relative to dir with `go list` and
// returns every matched package parsed and type-checked.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	mu.Lock()
	defer mu.Unlock()
	listed, err := list(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range listed {
		if lp.DepOnly || len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		p, err := check(lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadDir loads the single package rooted at dir (non-test files only) under
// the given import path. It is the fixture loader for analyzer tests:
// testdata directories are invisible to `go list` patterns, so they are read
// straight from disk.
func LoadDir(dir, importPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("loader: %v", err)
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	mu.Lock()
	defer mu.Unlock()
	return check(importPath, dir, files)
}

// check parses and type-checks one package (mu held), listing first whatever
// it imports that no earlier load in this process has listed — a fixture's
// imports; Load's own listing already covers its packages.
func check(path, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	var unlisted []string
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: %v", err)
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			imported, _ := strconv.Unquote(spec.Path.Value)
			if _, ok := exportFile[imported]; !ok && imported != "unsafe" {
				unlisted = append(unlisted, imported)
			}
		}
	}
	if len(unlisted) > 0 {
		if _, err := list(dir, unlisted...); err != nil {
			return nil, err
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	var firstErr error
	conf.Error = func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if firstErr != nil {
		// The tree builds before it is linted, so a type error here means
		// the loader mis-resolved something; fail loudly instead of
		// silently analyzing a half-checked package.
		return nil, fmt.Errorf("loader: type-checking %s: %v", path, firstErr)
	}
	name := ""
	if len(files) > 0 {
		name = files[0].Name.Name
	}
	return &Package{Path: path, Name: name, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
