// Package lint is zeuslint: a suite of static analyzers that mechanically
// enforce the Zeus engine's documented concurrency contracts. The paper's
// correctness argument (§4/§5) is model-checked against invariants that the
// code base otherwise carries only in comments and torture tests; each
// analyzer turns one such prose contract into a build-time error:
//
//   - frozen: a value is frozen once it is handed over — a wire message
//     after Send/SendBatch/Multicast/Broadcast/enqueue, a storage.Record
//     after Append, a []byte after a transaction's Set or a cluster's Seed —
//     and the payload views store.Object.DataLocked and a transaction's Get
//     return are frozen from birth. The callee keeps the memory (zero-copy
//     fabrics, retransmit queues, the group-commit encoder, the published
//     version), and Go has no read-only or moved-from type a signature could
//     demand instead.
//   - lockedsuffix: *Locked functions are only called with a mutex held (or
//     from another *Locked function) — the suffix names a dozen different
//     mutexes across the engines, so no one lock-token type could carry it.
//   - retrydiscipline: engine code does not call raw time.Sleep; retries,
//     polls and back-off go through internal/retry.
//   - ackdurable: in any function that sends a CommitAck, the WAL Append it
//     depends on comes first with its error consumed — no acknowledgement
//     may outrun the durability it promises, and no type orders two calls.
//
// Findings can be waived in place with a trailing or preceding comment:
//
//	//lint:allow <rule> <reason>
//
// The reason is mandatory; a waiver without one is itself a finding. The
// tree is expected to stay lint-clean (TestZeuslintTreeClean and the CI
// lint job enforce it), so every new invariant-bearing change either
// satisfies the contracts or carries an explicit, justified waiver.
//
// A rule a type or a test can carry is not linted. Every field of
// store.Object but Mu, ID and the atomic PendingCommits is unexported and
// changes only through the store's transitions (value side: stage, validate,
// install, recover, drop; ownership side: request, arbitrate, grant, prune,
// reclaim, adopt), so what two former analyzers and half of a third flagged no
// longer compiles: seqlockwrite's direct write of the ⟨t_version, t_state⟩
// word, every line of ringpublish (a ring write, append or address-of outside
// the store; a publish before the word advanced, which is now the statement
// order inside each transition and a version check in the one function that
// inserts), and lockedsuffix's unlocked write to a Mu-guarded field. The
// replacing half of the payload rule went the same way; its in-place half
// stays in frozen because the payload getter must return a plain []byte.
// obsrecord's metric record-site rules went to tests: a record block without
// its nil guard panics the tier-1 tests of its package, which run with
// observability off, and an allocation on a record path fails
// TestAllocCeilings' observability-on rows.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"zeus/internal/lint/analysis"
	"zeus/internal/lint/loader"
)

// storePkg is the import path owning the Object contracts.
const storePkg = "zeus/internal/store"

// wirePkg is the import path of the wire message types.
const wirePkg = "zeus/internal/wire"

// storagePkg is the import path owning the WAL record model.
const storagePkg = "zeus/internal/storage"

// Analyzers returns the full zeuslint suite.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Frozen,
		LockedSuffix,
		RetryDiscipline,
		AckDurable,
	}
}

// Finding is one post-waiver diagnostic.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Rule)
}

// Run applies the analyzers to every package and returns the surviving
// findings (waived diagnostics removed, malformed waivers added), sorted by
// position.
func Run(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var out []Finding
	for _, p := range pkgs {
		w := collectWaivers(p)
		out = append(out, w.malformed...)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      p.Fset,
				Files:     p.Files,
				Pkg:       p.Types,
				TypesInfo: p.Info,
			}
			rule := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				pos := p.Fset.Position(d.Pos)
				if w.allows(rule, pos) {
					return
				}
				out = append(out, Finding{Pos: pos, Rule: rule, Message: d.Message})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, p.Path, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out, nil
}

// waivers indexes //lint:allow comments of one package. A waiver suppresses
// matching findings on its own line and on the line directly below it (the
// comment-above form).
type waivers struct {
	// byLine maps file → line → rules allowed on that line.
	byLine    map[string]map[int][]string
	malformed []Finding
}

func collectWaivers(p *loader.Package) *waivers {
	w := &waivers{byLine: make(map[string]map[int][]string)}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					w.malformed = append(w.malformed, Finding{
						Pos:     pos,
						Rule:    "waiver",
						Message: "malformed waiver: want //lint:allow <rule> <reason>",
					})
					continue
				}
				rule := fields[0]
				lines := w.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					w.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], rule)
				lines[pos.Line+1] = append(lines[pos.Line+1], rule)
			}
		}
	}
	return w
}

func (w *waivers) allows(rule string, pos token.Position) bool {
	for _, r := range w.byLine[pos.Filename][pos.Line] {
		if r == rule {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Shared type helpers.
// ---------------------------------------------------------------------------

// isObjectType reports whether t (possibly a pointer) is store.Object.
func isObjectType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Object" && obj.Pkg() != nil && obj.Pkg().Path() == storePkg
}

// isRecordType reports whether t (possibly behind a pointer or slice) is
// storage.Record.
func isRecordType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		t = u.Elem()
	case *types.Slice:
		t = u.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Record" && obj.Pkg() != nil && obj.Pkg().Path() == storagePkg
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name (e.g. time.Sleep).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	return fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// isBuiltin reports whether call invokes the named builtin (append, copy, …).
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// calleeName returns the bare name of the function/method being called
// ("Send" for tr.Send(...), "enqueue" for e.enqueue(...)).
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// isMutexExpr reports whether e's type (possibly a pointer) is sync.Mutex or
// sync.RWMutex.
func isMutexExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
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
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// exprKey renders e as a stable key ("o.Mu") for lock tracking.
func exprKey(e ast.Expr) string { return types.ExprString(e) }
