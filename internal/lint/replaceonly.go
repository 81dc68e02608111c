package lint

import (
	"go/ast"
	"go/types"

	"zeus/internal/lint/analysis"
)

// ReplaceOnly enforces the in-place half of the store.Object payload contract.
// The payload slice is REPLACE-ONLY: the zero-copy read paths (SnapshotRef,
// the transaction layer's read buffers, the ownership ACK piggyback, FabricMem
// delivery) alias its backing array after the object lock is released, so a
// single mutated byte is a silent lost update that even the -race torture
// gates can miss (the readers are in other processes' logical pasts, not
// other goroutines). The replacing half needs no lint any more — the field is
// unexported and only the store's transitions assign it — but DataLocked hands
// out the live []byte, and Go has no read-only slice type to return instead:
// writing through that result is what is left to flag.
//
// Flagged, for o.DataLocked() or any local aliasing it (d := o.DataLocked()):
//
//	o.DataLocked()[i] = x    // element write
//	append(d, ...)           // may write into spare capacity
//	copy(d, src)             // bulk overwrite (payload as destination)
//	clear(d)
//	r.Read(d)                // fill-style callees (Read/ReadFull)
//
// The check is lexical per function: aliases through other function returns
// or struct fields are not tracked (the store package owns those paths).
var ReplaceOnly = &analysis.Analyzer{
	Name: "replaceonly",
	Doc:  "the slice store.Object.DataLocked returns is never written through",
	Run:  runReplaceOnly,
}

func runReplaceOnly(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Path() == storePkg {
		return nil, nil // the store package owns the payload
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkReplaceOnlyFunc(pass, fd.Body)
		}
	}
	return nil, nil
}

func checkReplaceOnlyFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// Pass 1: collect locals that alias the payload (d := o.DataLocked(),
	// possibly sliced). The data-source set is the getter call plus these.
	aliases := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isDataExpr(info, rhs, aliases) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					aliases[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					aliases[obj] = true
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				// Re-pointing an alias ident is harmless; an element write
				// goes through to the published array.
				if l, ok := lhs.(*ast.IndexExpr); ok && isDataExpr(info, l.X, aliases) {
					pass.Reportf(l.Pos(), "in-place element write to the store.Object payload (replace-only: stage a fresh slice)")
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := v.X.(*ast.IndexExpr); ok && isDataExpr(info, ix.X, aliases) {
				pass.Reportf(v.Pos(), "in-place element write to the store.Object payload (replace-only: stage a fresh slice)")
			}
		case *ast.CallExpr:
			checkReplaceOnlyCall(pass, v, aliases)
		}
		return true
	})
}

func checkReplaceOnlyCall(pass *analysis.Pass, call *ast.CallExpr, aliases map[types.Object]bool) {
	info := pass.TypesInfo
	if len(call.Args) == 0 {
		return
	}
	switch {
	case isBuiltin(info, call, "append"):
		if isDataExpr(info, call.Args[0], aliases) {
			pass.Reportf(call.Pos(), "append to the store.Object payload may write into the published backing array (replace-only: build a fresh slice)")
		}
	case isBuiltin(info, call, "copy"):
		if isDataExpr(info, call.Args[0], aliases) {
			pass.Reportf(call.Pos(), "copy into the store.Object payload overwrites the published backing array (replace-only: stage a fresh slice)")
		}
	case isBuiltin(info, call, "clear"):
		if isDataExpr(info, call.Args[0], aliases) {
			pass.Reportf(call.Pos(), "clear of the store.Object payload overwrites the published backing array (replace-only)")
		}
	default:
		// Fill-style callees that write into their []byte argument.
		name := calleeName(call)
		if name != "Read" && name != "ReadFull" {
			return
		}
		for _, arg := range call.Args {
			if isDataExpr(info, arg, aliases) {
				pass.Reportf(call.Pos(), "store.Object payload passed as %s's fill buffer mutates the published backing array (replace-only)", name)
			}
		}
	}
}

// isDataExpr reports whether e denotes the result of Object.DataLocked or a
// tracked alias, looking through parentheses and sub-slicing (d[:n] shares the
// array).
func isDataExpr(info *types.Info, e ast.Expr, aliases map[types.Object]bool) bool {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "DataLocked" {
				return false
			}
			s := info.Selections[sel]
			return s != nil && s.Kind() == types.MethodVal && isObjectType(s.Recv())
		case *ast.Ident:
			if obj := info.Uses[v]; obj != nil {
				return aliases[obj]
			}
			return false
		default:
			return false
		}
	}
}
