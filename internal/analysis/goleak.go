package analysis

import (
	"go/ast"
	"go/types"
)

// Goleak enforces the repository's goroutine-lifecycle convention: every
// `go` statement in a library package must be tied to a tracked waiter, so
// no goroutine can outlive the component that launched it. The pattern the
// repo standardized on (server handlers, client stale-refresh, the cluster
// client's batch fan-out) is a sync.WaitGroup bracket:
//
//	wg.Add(1)
//	go func() {
//	    defer wg.Done()
//	    ...
//	}()
//
// or, for a named worker, `wg.Add(1); go c.worker(...)` where the worker's
// body starts with `defer wg.Done()`. The analyzer checks both halves: the
// launched function must defer Done on some WaitGroup, and the launching
// function must Add on the same WaitGroup (same owning type and field, or
// the same variable) before the go statement. A leaked goroutine holds its
// whole capture set live and — worse for STEM — keeps touching shard state
// after Close returned, which the race detector only reports under the
// schedule that happens to interleave it.
//
// Goroutines drained by another join mechanism (an http.Server shut down
// via Shutdown, a worker joined by closing its output channel, a watcher
// collected via its own done channel) document the drain with
// `//lint:allow(goleak) <how it is joined>`. Main packages are exempt:
// process exit is their join.
var Goleak = &Analyzer{
	Name: "goleak",
	Doc:  "require every go statement in library packages to be bracketed by a tracked waiter (wg.Add before launch, defer wg.Done inside) or carry a //lint:allow(goleak) naming the drain mechanism",
	Run:  runGoleak,
}

// waiterKey identifies a WaitGroup either by owning named type and field
// ({typ, field}) or, for locals and package vars, by its variable object.
type waiterKey struct {
	obj        types.Object
	typ, field string
}

func runGoleak(pass *Pass) {
	pkg := pass.Pkg
	if pkg.Name == "main" {
		return
	}

	// Index declarations so named-callee launches can be resolved to the
	// body that should carry the deferred Done.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}

	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			adds := waiterAdds(pkg.Info, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkGoStmt(pass, g, adds, decls)
				return true
			})
		}
	}
}

// addEvent is one wg.Add call site in a launching function.
type addEvent struct {
	key waiterKey
	pos ast.Node
}

// waiterAdds collects every WaitGroup Add call in body (including inside
// nested literals: a helper closure doing the Add still brackets the
// launch) keyed by waiter identity.
func waiterAdds(info *types.Info, body *ast.BlockStmt) []addEvent {
	var adds []addEvent
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		if key, ok := waitGroupKey(info, sel.X); ok {
			adds = append(adds, addEvent{key: key, pos: call})
		}
		return true
	})
	return adds
}

// checkGoStmt validates one launch against the convention.
func checkGoStmt(pass *Pass, g *ast.GoStmt, adds []addEvent, decls map[*types.Func]*ast.FuncDecl) {
	pkg := pass.Pkg
	var dones []waiterKey
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		dones = deferredDones(pkg.Info, fun.Body)
	default:
		if callee := calleeFunc(pkg, g.Call); callee != nil {
			if fd := decls[callee]; fd != nil {
				dones = deferredDones(pkg.Info, fd.Body)
			}
		}
	}
	if len(dones) == 0 {
		pass.Reportf(g.Pos(), "goroutine is not tied to a tracked waiter: the launched function must `defer wg.Done()` on a sync.WaitGroup (or document its drain with //lint:allow(goleak))")
		return
	}
	for _, done := range dones {
		for _, add := range adds {
			if add.key == done && add.pos.Pos() < g.Pos() {
				return
			}
		}
	}
	pass.Reportf(g.Pos(), "goroutine defers %s.Done() but the launching function never calls %s.Add() before the go statement — Wait can return before this goroutine is counted", waiterName(dones[0]), waiterName(dones[0]))
}

// deferredDones collects the WaitGroups body defers Done on, skipping
// nested function literals (their defers run on another goroutine's exit).
func deferredDones(info *types.Info, body *ast.BlockStmt) []waiterKey {
	var dones []waiterKey
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		sel, ok := def.Call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if key, ok := waitGroupKey(info, sel.X); ok {
			dones = append(dones, key)
		}
		return true
	})
	return dones
}

// waitGroupKey resolves the identity of a sync.WaitGroup-typed expression:
// fields are keyed by owning type and field name so `s.wg` in the launcher
// and `w.wg` in the worker match; plain variables by their object.
func waitGroupKey(info *types.Info, e ast.Expr) (waiterKey, bool) {
	if !isWaitGroup(typeOf(info, e)) {
		return waiterKey{}, false
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if typ := exprTypeName(info, x.X); typ != "" {
			return waiterKey{typ: typ, field: x.Sel.Name}, true
		}
	case *ast.Ident:
		if obj := info.ObjectOf(x); obj != nil {
			return waiterKey{obj: obj}, true
		}
	}
	return waiterKey{}, false
}

// waiterName renders a waiter identity for messages.
func waiterName(k waiterKey) string {
	if k.typ != "" {
		return k.typ + "." + k.field
	}
	if k.obj != nil {
		return k.obj.Name()
	}
	return "wg"
}

// isWaitGroup reports whether t (through pointers) is sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}
