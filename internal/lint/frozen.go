package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"zeus/internal/lint/analysis"
)

// Frozen enforces the one rule every zero-copy hand-off in the engine rests
// on: a value is frozen once it is handed over, because the callee keeps its
// memory after the call returns. The hand-off table lists who keeps what:
//
//   - Send, SendBatch, Multicast, Broadcast, send, enqueue, queue and Enqueue keep a
//     wire message. FabricMem delivers every message with no codec round
//     trip (the receiver aliases the very struct the sender built), the
//     reliable transport's retransmit queue holds it until it is acked, and
//     the commit engine's resend path copy-on-writes rather than edit what is
//     in flight.
//   - Append keeps a storage.Record: the group-commit log encodes it
//     asynchronously, so a later write races the encoder, and replay can
//     diverge from what the follower acknowledged.
//   - A transaction's Set (core.Tx, dbapi.Txn, zeus.Tx) and a cluster's Seed
//     (cluster.Cluster's Seed and SeedAt, zeus.Cluster's Seed) keep a []byte:
//     they adopt it as the version they publish.
//
// The payload views are frozen from birth: the slice store.Object.DataLocked
// returns, and the view of it a transaction's Get returns, alias the payload
// the zero-copy read paths (SnapshotRef, the ownership ACK piggyback,
// FabricMem delivery) keep reading after Mu is released. One in-place write
// is a silent lost update that even the -race torture gates can miss, and Go
// has no read-only slice type the getter could return instead.
//
// A write through a wire message or a record is any assignment or ++/--
// through the variable (m.F = x, m.Updates[i] = u, *m = v); through a []byte
// it is one of
//
//	d[i] = x                 // element write
//	append(d, ...)           // may write into spare capacity
//	copy(d, src)             // bulk overwrite (d as destination)
//	clear(d)
//	r.Read(d)                // fill-style callees (Read/ReadFull)
//	binary.LittleEndian.PutUint64(d, x) // and PutUint16/32, any ByteOrder
//
// A write is flagged when it reaches handed-over memory — through the
// variable, a local alias of it (m2 := m, b := buf[:n], p := &v) or, for a
// []byte, another element of the same outer array (bufs[w][:]) — and comes
// lexically after the hand-off, or sits in a loop body or func literal that
// contains the hand-off while that memory was bound outside it: the next
// iteration or call rewrites what the last one handed over. Binding the
// variable to a fresh value (m = &wire.CommitVal{}, buf = make(...)) is a
// new value, not a write. A value passed by copy (a struct, not its address)
// leaves the caller's variable writable: that is the commit engine's
// copy-on-write replay. Legal for a view: copy first
// (append([]byte(nil), v...)), then write the copy.
//
// The check is lexical per function: aliases through other functions'
// results or through struct fields are not tracked (a buffer kept in a
// struct field and handed to Set is out of reach), and the store package,
// which owns the payload, is not checked.
var Frozen = &analysis.Analyzer{
	Name: "frozen",
	Doc:  "a value handed to Send, Append, Set or Seed, and a payload view from DataLocked or Get, is never written through",
	Run:  runFrozen,
}

// frozenRow is one kind of hand-off: the value it freezes and what keeps it.
type frozenRow struct {
	what string // the frozen value in a diagnostic; "" for a []byte
	// holds reports whether the callee keeps an argument of this type; nil
	// for a []byte row, whose argument is the one at the table's index.
	holds func(types.Type) bool
	keeps string // why the write races, for the diagnostic
}

var (
	wireMsgs = &frozenRow{"wire message", isWireMsgType, "the zero-copy fabric and retransmit queues may still reference it: copy-on-write a fresh message instead"}
	walRecs  = &frozenRow{"WAL record", isRecordType, "the group-commit log may still be encoding it: build a fresh record instead"}
	versions = &frozenRow{"", nil, "adopted as the published version: build a fresh slice per call"}
)

// handoffs is the hand-off table: a callee — a method's types.Func.FullName,
// or a bare name — and the argument it freezes, by index, or -1 for every
// argument of the row's type.
var handoffs = map[string]struct {
	row *frozenRow
	arg int
}{
	"Send": {wireMsgs, -1}, "SendBatch": {wireMsgs, -1}, "Multicast": {wireMsgs, -1},
	"Broadcast": {wireMsgs, -1}, "send": {wireMsgs, -1}, "enqueue": {wireMsgs, -1},
	"Enqueue": {wireMsgs, -1}, "queue": {wireMsgs, -1},
	"Append": {walRecs, -1},

	"(*zeus/internal/core.Tx).Set":            {versions, 1},
	"(zeus/internal/dbapi.Txn).Set":           {versions, 1},
	"(*zeus.Tx).Set":                          {versions, 1},
	"(*zeus/internal/cluster.Cluster).Seed":   {versions, 3},
	"(*zeus/internal/cluster.Cluster).SeedAt": {versions, 2},
	"(*zeus.Cluster).Seed":                    {versions, 2},
}

// handOff is one frozen argument: the call that froze it, its row, and the
// variable whose memory the callee keeps.
type handOff struct {
	call *ast.CallExpr
	row  *frozenRow
	v    *types.Var
}

// binding is one assignment to a variable: where, and the variable whose
// memory the new value aliases (nil for a fresh value or a copy).
type binding struct {
	at token.Pos
	to *types.Var
}

// mem names one value's memory: the variable bound to it, and where (the
// fresh assignment, or the variable's declaration).
type mem struct {
	v  *types.Var
	at token.Pos
}

func runFrozen(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Path() == storePkg {
		return nil, nil // the store package owns the payload
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFrozenFunc(pass, fd.Body)
		}
	}
	return nil, nil
}

func checkFrozenFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// Pass 1. views: locals aliasing a payload view (d := o.DataLocked(),
	// possibly sliced; v, err := tx.Get(obj)). binds: every assignment to a
	// local. handed: the frozen arguments. loops: func literals and loop
	// bodies, the code that runs again.
	views := make(map[types.Object]bool)
	binds := make(map[*types.Var][]binding)
	var handed []handOff
	var loops []ast.Node
	assign := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		if isDataExpr(info, rhs, views) {
			views[info.ObjectOf(id)] = true
		}
		if v := identVar(info, id); v != nil {
			binds[v] = append(binds[v], binding{id.Pos(), aliasOf(info, rhs)})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) == 2 && len(v.Rhs) == 1 && isTxCall(info, v.Rhs[0], "Get") {
				if id, ok := v.Lhs[0].(*ast.Ident); ok {
					views[info.ObjectOf(id)] = true
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
			handed = append(handed, handOffs(info, v)...)
		case *ast.FuncLit:
			loops = append(loops, v)
		case *ast.ForStmt:
			loops = append(loops, v.Body) // a for-clause variable is shared by every iteration
		case *ast.RangeStmt:
			loops = append(loops, v) // a range variable is a new element each iteration
		}
		return true
	})
	// rootAt is the memory v holds at pos: follow the last assignment to v
	// before pos through the alias it made. Positions strictly decrease, so
	// even x = y[:]; y = x[:] ends.
	rootAt := func(v *types.Var, pos token.Pos) mem {
		for {
			var last *binding
			for i, b := range binds[v] {
				if b.at < pos {
					last = &binds[v][i]
				}
			}
			switch {
			case last == nil:
				return mem{v, v.Pos()}
			case last.to == nil:
				return mem{v, last.at}
			}
			v, pos = last.to, last.at
		}
	}
	within := func(n ast.Node, p token.Pos) bool { return n.Pos() <= p && p < n.End() }
	// frozen says why a write through w at pos reaches memory a hand-off
	// keeps, "" if it cannot. The []byte row counts byte writes (write is
	// their description); the others, assignments.
	frozen := func(pos token.Pos, w *types.Var, assigned bool, write string) (*frozenRow, string) {
		m := rootAt(w, pos)
		for _, h := range handed {
			if (h.row.holds == nil && write == "") || (h.row.holds != nil && !assigned) || rootAt(h.v, h.call.Pos()) != m {
				continue
			}
			name := calleeName(h.call)
			if pos > h.call.End() {
				return h.row, "after it was handed to " + name
			}
			for _, l := range loops {
				if !within(l, pos) || !within(l, h.call.Pos()) || within(l, m.at) {
					continue
				}
				if _, lit := l.(*ast.FuncLit); lit {
					return h.row, "in a func literal that hands the captured " + m.v.Name() + " to " + name + ": the next call rewrites what the last one handed over"
				}
				return h.row, "in a loop that hands it to " + name + ": the next iteration rewrites what this one handed over"
			}
		}
		return nil, ""
	}

	// Pass 2: every write — an assignment or ++/-- through a variable, and
	// the byte writes — against the views and the hand-off table.
	check := func(pos token.Pos, target ast.Expr, assigned bool, write string) {
		if write != "" && isDataExpr(info, target, views) {
			pass.Reportf(pos, "%s (replace-only: the published backing array is shared; stage a fresh slice)",
				fmt.Sprintf(write, "the store.Object payload"))
			return
		}
		w := baseVar(info, target, true)
		if w == nil {
			return
		}
		row, why := frozen(pos, w, assigned, write)
		switch {
		case row == nil:
		case row.holds == nil:
			pass.Reportf(pos, "%s %s (%s)", fmt.Sprintf(write, types.ExprString(target)), why, row.keeps)
		default:
			pass.Reportf(pos, "%s %s written %s (%s)", row.what, w.Name(), why, row.keeps)
		}
	}
	// through is an assignment target that writes memory: anything but a
	// plain name, which binds a new value. An element write of a byte is a
	// byte write too, of the slice it indexes.
	through := func(lhs ast.Expr) {
		if _, plain := lhs.(*ast.Ident); plain {
			return
		}
		if l, ok := lhs.(*ast.IndexExpr); ok && isByte(info, l) {
			check(lhs.Pos(), l.X, true, "in-place element write to %s")
		} else {
			check(lhs.Pos(), lhs, true, "")
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				through(lhs)
			}
		case *ast.IncDecStmt:
			through(v.X)
		case *ast.CallExpr:
			if len(v.Args) == 0 {
				return true
			}
			switch {
			case isBuiltin(info, v, "append"):
				check(v.Pos(), v.Args[0], false, "append to %s")
			case isBuiltin(info, v, "copy"):
				check(v.Pos(), v.Args[0], false, "copy into %s")
			case isBuiltin(info, v, "clear"):
				check(v.Pos(), v.Args[0], false, "clear of %s")
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
					check(v.Pos(), arg, false, "%s passed as "+name+"'s fill buffer")
				}
			}
		}
		return true
	})
}

// handOffs returns the arguments call freezes, per the hand-off table.
func handOffs(info *types.Info, call *ast.CallExpr) []handOff {
	key := calleeName(call)
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
			if _, listed := handoffs[fn.FullName()]; listed {
				key = fn.FullName()
			}
		}
	}
	h, ok := handoffs[key]
	if !ok {
		return nil
	}
	var out []handOff
	for i, arg := range call.Args {
		var v *types.Var
		switch {
		case h.arg == i:
			v = baseVar(info, arg, false)
		case h.arg < 0:
			v = heldVar(info, arg, h.row.holds)
		}
		if v != nil {
			out = append(out, handOff{call, h.row, v})
		}
	}
	return out
}

// heldVar returns the variable arg shares with the callee when it is of a
// type holds accepts: x itself for a pointer, slice or interface x, or x for
// &x. A value passed by copy leaves the variable the caller's.
func heldVar(info *types.Info, arg ast.Expr, holds func(types.Type) bool) *types.Var {
	addressed := false
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		arg, addressed = u.X, true
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil
	}
	v := identVar(info, id)
	if v == nil || !holds(v.Type()) || !addressed && !isRef(v.Type()) {
		return nil
	}
	return v
}

// aliasOf returns the variable whose memory the value of e shares — buf for
// buf[:n] or append(buf[:0], ...), m for m, v for &v — or nil for a fresh
// value or a copy (a struct or array value, *p of one).
func aliasOf(info *types.Info, e ast.Expr) *types.Var {
	if call, ok := e.(*ast.CallExpr); ok && isBuiltin(info, call, "append") {
		e = call.Args[0] // b = append(buf[:0], ...) may keep buf's array
	}
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return baseVar(info, u.X, false)
	}
	if t := info.TypeOf(e); t == nil || !isRef(t) {
		return nil
	}
	return baseVar(info, e, false)
}

// isRef reports whether a value of type t shares memory with its copies.
func isRef(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Interface:
		return true
	}
	return false
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

// baseVar returns the variable whose memory e reaches, looking through
// parentheses, slicing, indexing into an outer slice or array, dereferences
// and, with fields, field selections (m.Updates[i] reaches m); nil for a
// call, a conversion, or a field without fields.
func baseVar(info *types.Info, e ast.Expr, fields bool) *types.Var {
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
		case *ast.SelectorExpr:
			if !fields {
				return nil
			}
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

// isWireMsgType reports whether t is a pointer to a struct declared in
// zeus/internal/wire, or a named interface from that package (wire.Msg).
func isWireMsgType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != wirePkg {
		return false
	}
	switch n.Underlying().(type) {
	case *types.Struct, *types.Interface:
		return true
	}
	return false
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
