package lint

import (
	"go/ast"
	"strings"

	"zeus/internal/lint/analysis"
)

// LockedSuffix enforces the codebase's lock-transfer naming convention: a
// function whose name ends in "Locked" (StageLocked, GrantLocalLocked,
// applyInvLocked, …) documents "the caller holds the corresponding mutex".
// The analyzer checks the call side of that contract: a *Locked function may
// only be called from another *Locked function or from a scope where some
// sync.Mutex/RWMutex is lexically held (a visible X.Lock()/X.RLock() with no
// intervening unconditional X.Unlock()). It is the rule a type cannot carry
// here: the suffix is used on some twenty functions over a dozen different
// mutexes (commit pipes, the view service, transport queues, the WAL,
// netsim), so a lock-token parameter would be a wrapper type per mutex.
// The field side it used to have — no unlocked write to store.Object's
// Mu-guarded fields — is a compile error now: every such field is unexported
// and written only by the store's own *Locked transitions.
//
// The analysis is a per-function lexical walk with light flow sensitivity:
// an Unlock inside a branch that terminates (returns/breaks/continues) does
// not release the outer scope's lock; function literals are independent
// scopes (a goroutine does not inherit its creator's locks); loop bodies do
// not leak acquisitions. It deliberately does not chase the *specific*
// mutex a callee documents — cross-object helpers make that a convention,
// not a mechanically recoverable fact — so the check is "some lock is
// held", which still catches the real failure mode: the lock-free call
// path that holds nothing at all.
var LockedSuffix = &analysis.Analyzer{
	Name: "lockedsuffix",
	Doc:  "*Locked functions require a held mutex",
	Run:  runLockedSuffix,
}

func runLockedSuffix(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ls := &lockScan{pass: pass, inLocked: strings.HasSuffix(fd.Name.Name, "Locked")}
			ls.block(fd.Body.List, map[string]bool{})
		}
	}
	return nil, nil
}

// lockScan walks one function scope tracking lexically held mutexes.
type lockScan struct {
	pass     *analysis.Pass
	inLocked bool
}

// block analyzes stmts sequentially, mutating held in place; it reports
// whether the statement list definitely terminates (return/branch/panic).
func (ls *lockScan) block(stmts []ast.Stmt, held map[string]bool) bool {
	for _, s := range stmts {
		if ls.stmt(s, held) {
			return true
		}
	}
	return false
}

// stmt analyzes one statement; it reports whether control definitely leaves
// the enclosing block afterwards.
func (ls *lockScan) stmt(s ast.Stmt, held map[string]bool) bool {
	switch v := s.(type) {
	case *ast.ExprStmt:
		if key, op, ok := mutexOp(ls.pass, v.X); ok {
			switch op {
			case "Lock", "RLock":
				held[key] = true
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return false
		}
		ls.expr(v.X, held)
	case *ast.DeferStmt:
		// defer X.Unlock() keeps the lock held for the rest of the scope.
		if _, op, ok := mutexOp(ls.pass, v.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return false
		}
		for _, a := range v.Call.Args {
			ls.expr(a, held)
		}
		if fl, ok := v.Call.Fun.(*ast.FuncLit); ok {
			// A deferred closure runs at return time, when locks acquired
			// here may already be released: fresh scope.
			ls.funcLit(fl)
		} else {
			ls.expr(v.Call.Fun, held)
		}
	case *ast.GoStmt:
		for _, a := range v.Call.Args {
			ls.expr(a, held)
		}
		if fl, ok := v.Call.Fun.(*ast.FuncLit); ok {
			ls.funcLit(fl) // goroutines do not inherit the creator's locks
		} else {
			ls.expr(v.Call.Fun, held)
		}
	case *ast.AssignStmt:
		for _, r := range v.Rhs {
			ls.expr(r, held)
		}
		for _, l := range v.Lhs {
			ls.expr(l, held)
		}
	case *ast.IncDecStmt:
		ls.expr(v.X, held)
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			ls.expr(r, held)
		}
		return true
	case *ast.BranchStmt:
		return true // break/continue/goto leave the block
	case *ast.IfStmt:
		if v.Init != nil {
			ls.stmt(v.Init, held)
		}
		ls.expr(v.Cond, held)
		thenHeld := copyHeld(held)
		thenTerm := ls.block(v.Body.List, thenHeld)
		switch e := v.Else.(type) {
		case nil:
			if !thenTerm {
				intersectHeld(held, thenHeld)
			}
		case *ast.BlockStmt:
			elseHeld := copyHeld(held)
			elseTerm := ls.block(e.List, elseHeld)
			switch {
			case thenTerm && elseTerm:
				return true
			case thenTerm:
				replaceHeld(held, elseHeld)
			case elseTerm:
				replaceHeld(held, thenHeld)
			default:
				replaceHeld(held, thenHeld)
				intersectHeld(held, elseHeld)
			}
		case *ast.IfStmt:
			elseHeld := copyHeld(held)
			elseTerm := ls.stmt(e, elseHeld)
			switch {
			case thenTerm && elseTerm:
				return true
			case thenTerm:
				replaceHeld(held, elseHeld)
			case elseTerm:
				replaceHeld(held, thenHeld)
			default:
				replaceHeld(held, thenHeld)
				intersectHeld(held, elseHeld)
			}
		}
	case *ast.ForStmt:
		if v.Init != nil {
			ls.stmt(v.Init, held)
		}
		if v.Cond != nil {
			ls.expr(v.Cond, held)
		}
		ls.block(v.Body.List, copyHeld(held)) // body effects stay in the body
	case *ast.RangeStmt:
		ls.expr(v.X, held)
		ls.block(v.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if v.Init != nil {
			ls.stmt(v.Init, held)
		}
		if v.Tag != nil {
			ls.expr(v.Tag, held)
		}
		ls.caseBodies(v.Body, held)
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			ls.stmt(v.Init, held)
		}
		ls.stmt(v.Assign, held)
		ls.caseBodies(v.Body, held)
	case *ast.SelectStmt:
		ls.caseBodies(v.Body, held)
	case *ast.BlockStmt:
		return ls.block(v.List, held)
	case *ast.LabeledStmt:
		return ls.stmt(v.Stmt, held)
	case *ast.DeclStmt:
		ast.Inspect(v, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				ls.expr(e, held)
				return false
			}
			return true
		})
	case *ast.SendStmt:
		ls.expr(v.Chan, held)
		ls.expr(v.Value, held)
	}
	return false
}

// caseBodies analyzes each clause with its own copy of held; acquisitions
// inside clauses do not leak out (conservative).
func (ls *lockScan) caseBodies(body *ast.BlockStmt, held map[string]bool) {
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				ls.expr(e, held)
			}
			ls.block(cc.Body, copyHeld(held))
		case *ast.CommClause:
			if cc.Comm != nil {
				ls.stmt(cc.Comm, copyHeld(held))
			}
			ls.block(cc.Body, copyHeld(held))
		}
	}
}

// expr inspects an expression for *Locked calls and nested function
// literals under the current lock state.
func (ls *lockScan) expr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			ls.funcLit(v)
			return false
		case *ast.CallExpr:
			name := calleeName(v)
			if strings.HasSuffix(name, "Locked") && name != "Locked" {
				if !ls.inLocked && len(held) == 0 {
					ls.pass.Reportf(v.Pos(), "%s called without a lexically held mutex (callers of *Locked functions must hold the documented lock or carry the suffix themselves)", name)
				}
			}
		}
		return true
	})
}

// funcLit analyzes a function literal as an independent scope.
func (ls *lockScan) funcLit(fl *ast.FuncLit) {
	if fl.Body == nil {
		return
	}
	inner := &lockScan{pass: ls.pass, inLocked: false}
	inner.block(fl.Body.List, map[string]bool{})
}

// mutexOp decodes e as a Lock/RLock/Unlock/RUnlock call on a sync mutex and
// returns the receiver key and the operation.
func mutexOp(pass *analysis.Pass, e ast.Expr) (key, op string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	if !isMutexExpr(pass.TypesInfo, sel.X) {
		return "", "", false
	}
	return exprKey(sel.X), sel.Sel.Name, true
}

func copyHeld(h map[string]bool) map[string]bool {
	out := make(map[string]bool, len(h))
	for k := range h {
		out[k] = true
	}
	return out
}

// replaceHeld makes dst equal to src in place.
func replaceHeld(dst, src map[string]bool) {
	for k := range dst {
		delete(dst, k)
	}
	for k := range src {
		dst[k] = true
	}
}

// intersectHeld drops from dst every lock not also in other.
func intersectHeld(dst, other map[string]bool) {
	for k := range dst {
		if !other[k] {
			delete(dst, k)
		}
	}
}
