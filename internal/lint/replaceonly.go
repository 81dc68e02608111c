package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

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
// layer up, both ways: a transaction's Get (core.Tx, dbapi.Txn, zeus.Tx)
// returns a view of that payload, and its Set adopts the slice it is handed as
// the version the commit publishes — as a cluster's Seed (cluster.Cluster's
// Seed and SeedAt, zeus.Cluster's Seed) adopts the seeded value.
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
// For tx.Set(obj, buf) or c.Seed(obj, owner, buf) — buf, a slice of it, of an
// array, of an element of an outer array (bufs[w][:]), or a local aliasing any
// of these — the same shapes are flagged on buf's memory when the write comes
// lexically after the call (unless buf was assigned a new array in between),
// or sits in a loop body or a func literal that contains the call while buf is
// declared outside it: the next iteration or call rewrites the version the
// last one published. Legal: a fresh slice per call. Distinct elements of one
// outer array count as one buffer, so giving each iteration its own element is
// flagged too.
//
// The check is lexical per function: aliases through other function returns
// or struct fields are not tracked (the store package owns those paths; a
// buffer kept in a struct field and handed to Set is out of reach).
var ReplaceOnly = &analysis.Analyzer{
	Name: "replaceonly",
	Doc:  "the slice store.Object.DataLocked or a transaction's Get returns, or a transaction's Set or a cluster's Seed adopted, is never written through",
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

	// Pass 1. aliases: locals that alias the payload (d := o.DataLocked(),
	// possibly sliced; v, err := tx.Get(obj)) — the data-source set is the
	// getter call plus these. parent: a local aliasing another variable's
	// memory (b := buf[:n]); fresh: where a variable was assigned anything
	// else. sets: the adopting calls (Set, Seed); loops: func literals and
	// loop bodies, the code that runs again.
	aliases := make(map[types.Object]bool)
	parent := make(map[*types.Var]*types.Var)
	fresh := make(map[*types.Var][]token.Pos)
	var sets []*ast.CallExpr
	var loops []ast.Node
	assign := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		if isDataExpr(info, rhs, aliases) {
			aliases[info.ObjectOf(id)] = true
		}
		v := identVar(info, id)
		if v == nil {
			return
		}
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(info, call, "append") {
			rhs = call.Args[0] // b = append(buf[:0], ...) may keep buf's array
		}
		if r := baseVar(info, rhs); r == nil {
			fresh[v] = append(fresh[v], lhs.Pos())
		} else if r != v {
			parent[v] = r
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) == 2 && len(v.Rhs) == 1 && isTxCall(info, v.Rhs[0], "Get") {
				if id, ok := v.Lhs[0].(*ast.Ident); ok {
					aliases[info.ObjectOf(id)] = true
				}
			}
			if len(v.Lhs) == len(v.Rhs) {
				for i := range v.Rhs {
					assign(v.Lhs[i], v.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(v.Names) == len(v.Values) {
				for i := range v.Values {
					assign(v.Names[i], v.Values[i])
				}
			}
		case *ast.CallExpr:
			if adoptedArg(info, v) != nil {
				sets = append(sets, v)
			}
		case *ast.FuncLit:
			loops = append(loops, v)
		case *ast.ForStmt:
			loops = append(loops, v.Body) // a for-clause variable is shared by every iteration
		case *ast.RangeStmt:
			loops = append(loops, v) // a range variable is a new element each iteration
		}
		return true
	})
	root := func(v *types.Var) *types.Var {
		for i := 0; i < 16 && parent[v] != nil; i++ { // bounded: x = y[:]; y = x[:] loops
			v = parent[v]
		}
		return v
	}
	within := func(n ast.Node, p token.Pos) bool { return n.Pos() <= p && p < n.End() }
	// frozen says why a write through target at pos can reach a version a Set
	// or Seed published, "" if it cannot.
	frozen := func(pos token.Pos, target ast.Expr) string {
		v := baseVar(info, target)
		if v == nil {
			return ""
		}
		r := root(v)
		for _, set := range sets {
			if sv := baseVar(info, adoptedArg(info, set)); sv == nil || root(sv) != r {
				continue
			}
			name := calleeName(set)
			if pos > set.End() && !assignedBetween(fresh[v], set.End(), pos) {
				return "after it was handed to " + name
			}
			for _, l := range loops {
				if !within(l, pos) || !within(l, set.Pos()) || within(l, r.Pos()) {
					continue
				}
				if _, lit := l.(*ast.FuncLit); lit {
					return "in a func literal that hands the captured " + r.Name() + " to " + name + ": the next call rewrites the version the last one published"
				}
				return "in a loop that hands it to " + name + ": the next iteration rewrites the version this one published"
			}
		}
		return ""
	}

	// Pass 2: every in-place write, checked against both contracts.
	check := func(pos token.Pos, target ast.Expr, write string) {
		if isDataExpr(info, target, aliases) {
			pass.Reportf(pos, "%s (replace-only: the published backing array is shared; stage a fresh slice)",
				fmt.Sprintf(write, "the store.Object payload"))
		} else if why := frozen(pos, target); why != "" {
			pass.Reportf(pos, "%s %s (adopted as the published version: build a fresh slice per call)",
				fmt.Sprintf(write, types.ExprString(target)), why)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				// Re-pointing a slice variable, or an element of a [][]byte,
				// is harmless; a byte written through goes to the array.
				if l, ok := lhs.(*ast.IndexExpr); ok && isByte(info, l) {
					check(l.Pos(), l.X, "in-place element write to %s")
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := v.X.(*ast.IndexExpr); ok && isByte(info, ix) {
				check(v.Pos(), ix.X, "in-place element write to %s")
			}
		case *ast.CallExpr:
			if len(v.Args) == 0 {
				return true
			}
			switch {
			case isBuiltin(info, v, "append"):
				check(v.Pos(), v.Args[0], "append to %s")
			case isBuiltin(info, v, "copy"):
				check(v.Pos(), v.Args[0], "copy into %s")
			case isBuiltin(info, v, "clear"):
				check(v.Pos(), v.Args[0], "clear of %s")
			default:
				// Fill-style callees that write into their []byte argument: any
				// argument of Read/ReadFull, the first of binary.ByteOrder's PutUintN.
				args := v.Args
				name := calleeName(v)
				switch name {
				case "Read", "ReadFull":
				case "PutUint16", "PutUint32", "PutUint64":
					args = args[:1]
				default:
					return true
				}
				for _, arg := range args {
					check(v.Pos(), arg, "%s passed as "+name+"'s fill buffer")
				}
			}
		}
		return true
	})
}

// isByte reports whether the element ix denotes is a byte.
func isByte(info *types.Info, ix *ast.IndexExpr) bool {
	t := info.TypeOf(ix)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// assignedBetween reports whether one of the positions lies in (from, to).
func assignedBetween(at []token.Pos, from, to token.Pos) bool {
	for _, p := range at {
		if from < p && p < to {
			return true
		}
	}
	return false
}

// baseVar returns the variable whose memory the slice expression e writes
// through, looking through parentheses, slicing, indexing into an outer slice
// or array, and (*p)[:]; nil for a call, a conversion or a field.
func baseVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.Ident:
			return identVar(info, v)
		default:
			return nil
		}
	}
}

// identVar is the variable id declares or refers to, nil for anything else.
func identVar(info *types.Info, id *ast.Ident) *types.Var {
	v, _ := info.ObjectOf(id).(*types.Var)
	return v
}

// txTypes are the transaction types whose Get returns a view of the payload
// (types.Func.FullName's receiver form).
var txTypes = map[string]bool{
	"(*zeus/internal/core.Tx)":  true,
	"(zeus/internal/dbapi.Txn)": true,
	"(*zeus.Tx)":                true,
}

// isTxCall reports whether e calls the method named method of one of txTypes.
func isTxCall(info *types.Info, e ast.Expr, method string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == method && txTypes[strings.TrimSuffix(fn.FullName(), "."+method)]
}

// adopters are the methods (types.Func.FullName) that adopt the argument at
// the given index as a published version.
var adopters = map[string]int{
	"(*zeus/internal/core.Tx).Set":            1,
	"(zeus/internal/dbapi.Txn).Set":           1,
	"(*zeus.Tx).Set":                          1,
	"(*zeus/internal/cluster.Cluster).Seed":   3,
	"(*zeus/internal/cluster.Cluster).SeedAt": 2,
	"(*zeus.Cluster).Seed":                    2,
}

// adoptedArg returns the argument call hands to one of adopters, nil if none.
func adoptedArg(info *types.Info, call *ast.CallExpr) ast.Expr {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
			if i, ok := adopters[fn.FullName()]; ok && i < len(call.Args) {
				return call.Args[i]
			}
		}
	}
	return nil
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
