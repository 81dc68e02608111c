package zeus_test

import (
	"flag"
	"fmt"
	"go/types"
	"os"
	"strings"
	"testing"

	"zeus/internal/lint/loader"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.golden from the current tree")

// TestPublicAPIUnchanged pins the public surface of package zeus: every
// exported name with its signature, the exported fields and methods of its
// types, and the fields of the internal structs those fields expose
// (netsim.Config). A change to any of them fails
// here until testdata/api.golden is rewritten with -update-api, where a
// reviewer sees it. Unexported names and fields are not part of it.
func TestPublicAPIUnchanged(t *testing.T) {
	pkgs, err := loader.Load(".", ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "zeus" {
		t.Fatalf("loaded %d packages, want package zeus alone", len(pkgs))
	}
	got := publicAPI(pkgs[0].Types)
	const golden = "testdata/api.golden"
	if *updateAPI {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("public zeus API changed; run go test -run TestPublicAPIUnchanged -update-api . and review the diff\ngot:\n%s", got)
	}
}

// publicAPI renders pkg's exported surface one declaration a line, in the
// scope's (sorted) order; fields and methods follow their type, indented.
func publicAPI(pkg *types.Package) string {
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	var b strings.Builder
	var exposed []*types.Named // structs of other packages that fields expose
	seen := make(map[*types.Named]bool)
	fields := func(st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			fmt.Fprintf(&b, "\t%s %s\n", f.Name(), types.TypeString(f.Type(), qual))
			if n, ok := f.Type().(*types.Named); ok && n.Obj().Pkg() != pkg && !seen[n] {
				if _, ok := n.Underlying().(*types.Struct); ok {
					seen[n] = true
					exposed = append(exposed, n)
				}
			}
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		tn, ok := obj.(*types.TypeName)
		if !ok {
			fmt.Fprintln(&b, types.ObjectString(obj, qual))
			continue
		}
		named := tn.Type().(*types.Named)
		st, isStruct := named.Underlying().(*types.Struct)
		if isStruct {
			fmt.Fprintf(&b, "type %s struct\n", name)
			fields(st)
		} else {
			fmt.Fprintf(&b, "type %s %s\n", name, types.TypeString(named.Underlying(), qual))
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				fmt.Fprintf(&b, "\t%s\n", types.ObjectString(m, qual))
			}
		}
	}
	for i := 0; i < len(exposed); i++ { // fields may expose more
		n := exposed[i]
		fmt.Fprintf(&b, "type %s struct\n", types.TypeString(n, qual))
		fields(n.Underlying().(*types.Struct))
	}
	return b.String()
}
