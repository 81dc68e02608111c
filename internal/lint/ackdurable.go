package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"zeus/internal/lint/analysis"
)

// AckDurable enforces the ordering the storage package's durability contract
// promises at the call sites that carry it: an R-ACK must not leave before the
// storage write it depends on returns. In any function that both appends WAL
// records and hands a CommitAck to a send-side entry point (the frozen
// analyzer's wire-message row), the append must come first — source order
// approximates program order — and the Append error must be consumed: a
// discarded error acks a write that may not be durable. commit.Engine's
// ackDurable is the sanctioned choke point; best-effort appends (recCommitted,
// recGrant) live in functions that send no acks and stay exempt.
//
// An R-ACK names a window of slots, so ackDurable hands a CommitAck to
// enqueue only when a slot does not fit the open window; the usual emission
// site is commit.Engine.sealAckLocked, which flushOut calls to turn each
// pending window into one CommitAck. That function appends nothing, so this
// analyzer does not see it: it emits only bits ackDurable set, each after
// its Append returned without error, and the rule across the two functions
// is held at run time.
//
// No type orders two calls. TestDuplicateInvDoesNotRelog holds the same rule
// at run time, for that one choke point: no R-ACK names a slot while its
// Append is blocked, and none after a failed one; TestAFailedAppendSetsNoBit
// holds it for the window bit.
var AckDurable = &analysis.Analyzer{
	Name: "ackdurable",
	Doc:  "a CommitAck follows the WAL Append it depends on, with its error checked",
	Run:  runAckDurable,
}

func runAckDurable(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkAckDurableFunc(pass, fd.Body)
		}
	}
	return nil, nil
}

func checkAckDurableFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	var appends []token.Pos   // WAL Append call positions
	var discarded []token.Pos // WAL Appends whose error is dropped
	var acks []token.Pos      // CommitAck send positions

	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ExprStmt:
			// A WAL Append as a bare statement drops its error.
			if call, ok := v.X.(*ast.CallExpr); ok && isWalAppend(info, call) {
				discarded = append(discarded, call.Pos())
			}
		case *ast.AssignStmt:
			// `_ = l.Append(...)` drops the error just as silently.
			if call, ok := soleRHSCall(v); ok && isWalAppend(info, call) && allBlank(v.Lhs) {
				discarded = append(discarded, call.Pos())
			}
		case *ast.CallExpr:
			if isWalAppend(info, v) {
				appends = append(appends, v.Pos())
				return true
			}
			if handoffs[calleeName(v)].row == wireMsgs {
				for _, arg := range v.Args {
					if isCommitAckExpr(info, arg) {
						acks = append(acks, v.Pos())
						break
					}
				}
			}
		}
		return true
	})

	if len(acks) == 0 || len(appends) == 0 {
		return
	}
	first := appends[0]
	for _, p := range appends[1:] {
		if p < first {
			first = p
		}
	}
	for _, ack := range acks {
		if ack < first {
			pass.Reportf(ack, "CommitAck sent before the WAL Append it depends on returns: a coordinator must never see an ack for a write the follower could forget")
		}
	}
	for _, p := range discarded {
		pass.Reportf(p, "WAL Append error discarded in a function that sends CommitAck: a failed append must suppress the ack, not race past it")
	}
}

// isWalAppend reports whether call is an Append carrying storage records.
func isWalAppend(info *types.Info, call *ast.CallExpr) bool {
	if calleeName(call) != "Append" {
		return false
	}
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && isRecordType(tv.Type) {
			return true
		}
	}
	return false
}

// isCommitAckExpr reports whether arg's type is wire.CommitAck (possibly
// behind a pointer) — the message whose departure the WAL gates.
func isCommitAckExpr(info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[arg]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "CommitAck" && obj.Pkg() != nil && obj.Pkg().Path() == wirePkg
}

// soleRHSCall returns the call when assign's RHS is exactly one call expr.
func soleRHSCall(assign *ast.AssignStmt) (*ast.CallExpr, bool) {
	if len(assign.Rhs) != 1 {
		return nil, false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	return call, ok
}

// allBlank reports whether every LHS is the blank identifier.
func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
