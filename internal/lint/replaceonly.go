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
// writing through that result is what is left to flag. The same holds one
// layer up: a transaction's Get (core.Tx, dbapi.Txn, zeus.Tx) returns a view of
// that payload, not a copy, so its first result is a source too.
//
// Flagged, for o.DataLocked(), the slice of v, err := tx.Get(obj), or any
// local aliasing either (d := o.DataLocked()):
//
//	o.DataLocked()[i] = x    // element write
//	append(d, ...)           // may write into spare capacity
//	copy(d, src)             // bulk overwrite (payload as destination)
//	clear(d)
//	r.Read(d)                // fill-style callees (Read/ReadFull)
//	binary.LittleEndian.PutUint64(d, x) // and PutUint16/32, any ByteOrder
//
// Legal: copy first (append([]byte(nil), v...)), then write the copy.
//
// The check is lexical per function: aliases through other function returns
// or struct fields are not tracked (the store package owns those paths).
var ReplaceOnly = &analysis.Analyzer{
	Name: "replaceonly",
	Doc:  "the slice store.Object.DataLocked or a transaction's Get returns is never written through",
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
	// possibly sliced; v, err := tx.Get(obj)). The data-source set is the
	// getter call plus these.
	aliases := make(map[types.Object]bool)
	alias := func(lhs ast.Expr) {
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				aliases[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				aliases[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(as.Lhs) == 2 && len(as.Rhs) == 1 && isTxGet(info, as.Rhs[0]) {
			alias(as.Lhs[0])
			return true
		}
		if len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if isDataExpr(info, rhs, aliases) {
				alias(as.Lhs[i])
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
		// Fill-style callees that write into their []byte argument: any
		// argument of Read/ReadFull, the first of binary.ByteOrder's PutUintN.
		args := call.Args
		name := calleeName(call)
		switch name {
		case "Read", "ReadFull":
		case "PutUint16", "PutUint32", "PutUint64":
			args = args[:1]
		default:
			return
		}
		for _, arg := range args {
			if isDataExpr(info, arg, aliases) {
				pass.Reportf(call.Pos(), "store.Object payload passed as %s's fill buffer mutates the published backing array (replace-only)", name)
			}
		}
	}
}

// txGets are the transaction reads whose first result is a view of the
// payload (types.Func.FullName form).
var txGets = map[string]bool{
	"(*zeus/internal/core.Tx).Get":  true,
	"(zeus/internal/dbapi.Txn).Get": true,
	"(*zeus.Tx).Get":                true,
}

// isTxGet reports whether e is a call of one of txGets.
func isTxGet(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && txGets[fn.FullName()]
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
