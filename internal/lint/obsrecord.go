package lint

import (
	"go/ast"
	"go/types"

	"zeus/internal/lint/analysis"
)

// obsPkg is the import path of the observability subsystem.
const obsPkg = "zeus/internal/obs"

// Obsrecord enforces the observability discipline of internal/obs: metric
// record sites must be allocation-free and nil-guarded, so an instrumented
// engine with obs disabled keeps the seed hot path bit for bit.
//
// Three rules:
//
//  1. Metric names handed to Registry.Counter/Gauge/Histogram (and the
//     *Func variants) must be compile-time constants — no fmt.Sprintf or
//     string concatenation label construction. Dynamic metric families
//     (per-shard heat counters) are registered once at wiring time behind
//     an explicit //lint:allow obsrecord waiver.
//  2. Histogram/Counter/Gauge record arguments must not derive from
//     time.Now() at the record site: a Now() pair split across locks
//     measures lock wait, not the phase. Stamp the start once under the
//     obs gate and record via RecordSince (which wraps time.Since).
//  3. A record call reached through a field path (e.obs.committed.Add)
//     must be dominated by a nil check on the obs handle — an enclosing
//     `if e.obs != nil`, a `x != nil &&` conjunct, or an early
//     `if e.obs == nil { return }`. Bare local handles (h.Record) are
//     wiring-scoped and exempt; a record on the result of a registry
//     lookup (r.Counter("x").Inc()) is a per-event map lookup and is
//     flagged outright.
//
// Scope: the whole tree except internal/obs itself (its internals are the
// implementation); test files are never analyzed.
var Obsrecord = &analysis.Analyzer{
	Name: "obsrecord",
	Doc:  "metric record sites must be allocation-free and nil-guarded",
	Run:  runObsRecord,
}

// obsRecordMethods are the hot-path record entry points of the metric types.
var obsRecordMethods = map[string]bool{
	"Add": true, "Inc": true, "Set": true, "Record": true, "RecordSince": true,
}

// obsLookupMethods are the Registry's registration-time lookups.
var obsLookupMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"CounterFunc": true, "GaugeFunc": true,
}

func runObsRecord(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Path() == obsPkg {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obsCheckStmts(pass, fn.Body.List, nil)
		}
	}
	return nil, nil
}

// obsCheckStmts walks a statement list carrying the set of expressions
// proven non-nil (by exprKey) at each point. The facts map is flow-
// insensitive within a statement but respects lexical dominance: enclosing
// `!= nil` guards and terminating `== nil` early returns. Obs handles are
// set once, by the engine's constructor, so lexical facts are never
// invalidated by assignment.
func obsCheckStmts(pass *analysis.Pass, stmts []ast.Stmt, facts map[string]bool) {
	facts = copyFacts(facts)
	for _, s := range stmts {
		obsCheckStmt(pass, s, facts)
		// `if x == nil { return }` proves x non-nil for the statements
		// below it.
		if ifs, ok := s.(*ast.IfStmt); ok && ifs.Else == nil && obsTerminates(ifs.Body) {
			if key, ok := obsNilEq(ifs.Cond); ok {
				facts[key] = true
			}
		}
	}
}

func obsCheckStmt(pass *analysis.Pass, s ast.Stmt, facts map[string]bool) {
	switch v := s.(type) {
	case *ast.IfStmt:
		if v.Init != nil {
			obsCheckStmt(pass, v.Init, facts)
		}
		obsScan(pass, v.Cond, facts)
		thenFacts := copyFacts(facts)
		for _, key := range obsNilNeqConjuncts(v.Cond) {
			thenFacts[key] = true
		}
		obsCheckStmts(pass, v.Body.List, thenFacts)
		if v.Else != nil {
			elseFacts := copyFacts(facts)
			if key, ok := obsNilEq(v.Cond); ok {
				elseFacts[key] = true
			}
			switch e := v.Else.(type) {
			case *ast.BlockStmt:
				obsCheckStmts(pass, e.List, elseFacts)
			case *ast.IfStmt:
				obsCheckStmt(pass, e, elseFacts)
			}
		}
	case *ast.BlockStmt:
		obsCheckStmts(pass, v.List, facts)
	case *ast.ForStmt:
		if v.Init != nil {
			obsCheckStmt(pass, v.Init, facts)
		}
		bodyFacts := copyFacts(facts)
		if v.Cond != nil {
			obsScan(pass, v.Cond, facts)
			for _, key := range obsNilNeqConjuncts(v.Cond) {
				bodyFacts[key] = true
			}
		}
		if v.Post != nil {
			obsCheckStmt(pass, v.Post, bodyFacts)
		}
		obsCheckStmts(pass, v.Body.List, bodyFacts)
	case *ast.RangeStmt:
		obsScan(pass, v.X, facts)
		obsCheckStmts(pass, v.Body.List, facts)
	case *ast.SwitchStmt:
		if v.Init != nil {
			obsCheckStmt(pass, v.Init, facts)
		}
		if v.Tag != nil {
			obsScan(pass, v.Tag, facts)
		}
		for _, cc := range v.Body.List {
			c := cc.(*ast.CaseClause)
			for _, e := range c.List {
				obsScan(pass, e, facts)
			}
			obsCheckStmts(pass, c.Body, facts)
		}
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			obsCheckStmt(pass, v.Init, facts)
		}
		obsCheckStmt(pass, v.Assign, facts)
		for _, cc := range v.Body.List {
			c := cc.(*ast.CaseClause)
			obsCheckStmts(pass, c.Body, facts)
		}
	case *ast.SelectStmt:
		for _, cc := range v.Body.List {
			c := cc.(*ast.CommClause)
			if c.Comm != nil {
				obsCheckStmt(pass, c.Comm, facts)
			}
			obsCheckStmts(pass, c.Body, facts)
		}
	case *ast.LabeledStmt:
		obsCheckStmt(pass, v.Stmt, facts)
	default:
		obsScan(pass, s, facts)
	}
}

// obsScan inspects an expression-bearing node for obs calls, recursing into
// function literals with the current facts (obs handles are set-once, so a
// closure defined under a guard stays guarded when it runs).
func obsScan(pass *analysis.Pass, n ast.Node, facts map[string]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			obsCheckStmts(pass, v.Body.List, facts)
			return false
		case *ast.CallExpr:
			obsCheckCall(pass, v, facts)
		}
		return true
	})
}

func obsCheckCall(pass *analysis.Pass, call *ast.CallExpr, facts map[string]bool) {
	recvType, method, ok := obsMethodCall(pass.TypesInfo, call)
	if !ok {
		return
	}
	if recvType == "Registry" && obsLookupMethods[method] {
		if len(call.Args) > 0 && pass.TypesInfo.Types[call.Args[0]].Value == nil {
			pass.Reportf(call.Pos(), "metric name is not a compile-time constant: no fmt/concat label construction at lookup sites; register dynamic metric families once at wiring time under an explicit waiver")
		}
		return
	}
	if !obsRecordMethods[method] {
		return
	}
	if recvType != "Counter" && recvType != "Gauge" && recvType != "Histogram" {
		return
	}
	// Rule 2: no time.Now() arithmetic at the record site.
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(x ast.Node) bool {
			if c, ok := x.(*ast.CallExpr); ok && isPkgFunc(pass.TypesInfo, c, "time", "Now") {
				found = true
			}
			return !found
		})
		if found {
			pass.Reportf(call.Pos(), "%s.%s argument derives from time.Now() at the record site: stamp the start once under the obs gate and record via RecordSince", recvType, method)
		}
	}
	// Rule 3: the receiver path must be nil-guarded (or a cached handle).
	recv := call.Fun.(*ast.SelectorExpr).X
	recv = obsUnwrap(recv)
	switch rv := recv.(type) {
	case *ast.CallExpr:
		pass.Reportf(call.Pos(), "%s on the result of a registry lookup: the record path pays a map lookup per event — cache the metric handle at wiring time and record through it", method)
	case *ast.SelectorExpr:
		if !obsGuarded(rv, facts) {
			pass.Reportf(call.Pos(), "metric record through %s without a dominating nil check on its obs handle: gate record sites so disabled deployments keep the seed hot path", exprKey(rv))
		}
	}
}

// obsUnwrap strips index and paren layers off a receiver expression
// (e.obs.nacks[i] → e.obs.nacks).
func obsUnwrap(e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return e
		}
	}
}

// obsGuarded reports whether the receiver path or any selector prefix of it
// carries a non-nil fact ("e.obs.committed" is guarded by facts on
// "e.obs.committed", "e.obs" or "e").
func obsGuarded(sel ast.Expr, facts map[string]bool) bool {
	e := obsUnwrap(sel)
	for {
		if facts[exprKey(e)] {
			return true
		}
		s, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		e = obsUnwrap(s.X)
	}
}

// obsMethodCall resolves call as a method on a zeus/internal/obs named type.
func obsMethodCall(info *types.Info, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, k := call.Fun.(*ast.SelectorExpr)
	if !k {
		return "", "", false
	}
	fn, k := info.Uses[sel.Sel].(*types.Func)
	if !k {
		return "", "", false
	}
	sig, k := fn.Type().(*types.Signature)
	if !k || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, k := t.(*types.Named)
	if !k {
		return "", "", false
	}
	o := n.Obj()
	if o.Pkg() == nil || o.Pkg().Path() != obsPkg {
		return "", "", false
	}
	return o.Name(), fn.Name(), true
}

// obsNilNeqConjuncts returns the exprKeys proven non-nil when cond is true:
// every `x != nil` conjunct of a && chain.
func obsNilNeqConjuncts(cond ast.Expr) []string {
	var out []string
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		e = obsUnparen(e)
		if b, ok := e.(*ast.BinaryExpr); ok {
			switch b.Op.String() {
			case "&&":
				walk(b.X)
				walk(b.Y)
			case "!=":
				if other, ok := obsNonNilSide(b); ok {
					out = append(out, exprKey(other))
				}
			}
		}
	}
	walk(cond)
	return out
}

// obsNilEq matches a bare `x == nil` condition and returns x's key.
func obsNilEq(cond ast.Expr) (string, bool) {
	b, ok := obsUnparen(cond).(*ast.BinaryExpr)
	if !ok || b.Op.String() != "==" {
		return "", false
	}
	other, ok := obsNonNilSide(b)
	if !ok {
		return "", false
	}
	return exprKey(other), true
}

// obsNonNilSide returns the non-nil operand of a binary comparison against
// the nil identifier.
func obsNonNilSide(b *ast.BinaryExpr) (ast.Expr, bool) {
	if obsIsNil(b.Y) {
		return obsUnparen(b.X), true
	}
	if obsIsNil(b.X) {
		return obsUnparen(b.Y), true
	}
	return nil, false
}

func obsIsNil(e ast.Expr) bool {
	id, ok := obsUnparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func obsUnparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// obsTerminates reports whether a block always transfers control away
// (return, break/continue/goto, or panic as its last statement).
func obsTerminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if c, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func copyFacts(in map[string]bool) map[string]bool {
	out := make(map[string]bool, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}
