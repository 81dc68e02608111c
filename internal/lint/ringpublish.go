package lint

import (
	"go/ast"
	"go/token"

	"zeus/internal/lint/analysis"
)

// RingPublish enforces the version-ring contract behind MVCC snapshot
// reads: store.Object.Ring is replace-only and append-via-publish only.
// Ring entries are read lock-free of the writer's critical path by any
// replica serving a snapshot, so one in-place mutation rewrites history a
// committed snapshot already observed, and one hand-rolled append can
// publish a version before the object's seqlock word (⟨t_version, t_state⟩,
// via SetTLocked) reflects it — a reader would then serve data the
// validation plane does not vouch for.
//
// Flagged outside the store package (inside it, only PublishRingLocked and
// ResetRingLocked may touch the field):
//
//	o.Ring = entries               // direct field write
//	o.Ring[0] = e                  // in-place element write
//	o.Ring = append(o.Ring, e)     // hand-rolled append
//	x := append(o.Ring, e)         // aliasing append (shares backing array)
//	&o.Ring                        // address escape (enables later writes)
//	store.Object{Ring: ...}        // keyed construction
//
// Additionally, in any function (any package) that calls PublishRingLocked,
// a SetTLocked call must appear textually earlier in the same function:
// publishing before the seqlock word advanced would let a ring reader
// observe a version the object does not carry yet.
var RingPublish = &analysis.Analyzer{
	Name: "ringpublish",
	Doc:  "Object.Ring entries enter only via PublishRingLocked, after SetTLocked",
	Run:  runRingPublish,
}

func runRingPublish(pass *analysis.Pass) (interface{}, error) {
	inStore := pass.Pkg.Path() == storePkg
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fname := fd.Name.Name
			// The two blessed mutators inside the store package.
			ringWriter := inStore && (fname == "PublishRingLocked" || fname == "ResetRingLocked")
			var setPos token.Pos = token.NoPos // earliest SetTLocked call
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.AssignStmt:
					if !ringWriter {
						for _, lhs := range v.Lhs {
							checkRingWrite(pass, lhs, "write")
						}
					}
				case *ast.IncDecStmt:
					if !ringWriter {
						checkRingWrite(pass, v.X, "write")
					}
				case *ast.UnaryExpr:
					if !ringWriter && v.Op == token.AND {
						checkRingWrite(pass, v.X, "address-of")
					}
				case *ast.CallExpr:
					if !ringWriter && isBuiltin(pass.TypesInfo, v, "append") && len(v.Args) > 0 {
						if name, ok := objectField(pass.TypesInfo, ringBase(v.Args[0])); ok && name == "Ring" {
							pass.Reportf(v.Pos(), "append to store.Object.Ring bypasses PublishRingLocked (and may alias published entries)")
						}
					}
					if name := calleeName(v); name == "SetTLocked" {
						if setPos == token.NoPos || v.Pos() < setPos {
							setPos = v.Pos()
						}
					} else if name == "PublishRingLocked" && !inStore {
						if setPos == token.NoPos || v.Pos() < setPos {
							pass.Reportf(v.Pos(), "PublishRingLocked with no earlier SetTLocked in %s: the ring must not run ahead of the seqlock word", fname)
						}
					}
				case *ast.CompositeLit:
					checkRingComposite(pass, v, inStore)
				}
				return true
			})
		}
	}
	return nil, nil
}

// ringBase unwraps index/slice expressions so o.Ring[i] and o.Ring[i:j]
// resolve to the Ring selector.
func ringBase(e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		default:
			return e
		}
	}
}

func checkRingWrite(pass *analysis.Pass, e ast.Expr, verb string) {
	base := ringBase(e)
	name, ok := objectField(pass.TypesInfo, base)
	if !ok || name != "Ring" {
		return
	}
	if base != e {
		pass.Reportf(e.Pos(), "in-place %s of a store.Object.Ring entry rewrites history a snapshot may have observed: entries are immutable once published", verb)
		return
	}
	pass.Reportf(e.Pos(), "direct %s of store.Object.Ring: ring entries enter only via PublishRingLocked (ResetRingLocked to drop)", verb)
}

// checkRingComposite flags store.Object{Ring: ...} outside the store
// package: a keyed ring seed bypasses the publish ordering entirely.
func checkRingComposite(pass *analysis.Pass, cl *ast.CompositeLit, inStore bool) {
	if inStore {
		return
	}
	tv, ok := pass.TypesInfo.Types[cl]
	if !ok || !isObjectType(tv.Type) {
		return
	}
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Ring" {
			pass.Reportf(kv.Pos(), "store.Object constructed with keyed Ring bypasses PublishRingLocked: build the object empty and publish entries")
		}
	}
}
