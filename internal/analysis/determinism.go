package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the repository's bit-reproducibility contract: a
// fixed-seed run of the simulators or the stemcache engine must produce
// identical results on every execution (DESIGN.md, the determinism tests).
//
// Three things silently break that contract without ever failing -race:
//
//   - time.Now: wall-clock reads differ run to run. Only annotated tool
//     boundaries (flag parsing, progress timing) may touch the clock.
//   - the global math/rand source: it is seeded per process (and shared), so
//     draws are not reproducible; all randomness must flow through the
//     seeded sim.RNG. Constructing private sources (rand.New, rand.NewPCG,
//     ...) remains legal.
//   - ranging over a map while mutating outside state: Go randomizes map
//     iteration order per run, so any order-sensitive fold (including
//     floating-point accumulation) diverges. This check covers every
//     non-main package but the few listed in mapRangeExempt.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clocks, the global math/rand source, and order-sensitive map iteration (in every non-main package but obs, server and analysis)",
	Run:  runDeterminism,
}

// mapRangeExempt are the non-main packages the map-range check skips, each
// for the reason beside it. Main packages are skipped too: a tool's own
// bookkeeping is not seeded output. Every other package is in scope, so a
// new package is checked without editing this list.
var mapRangeExempt = []string{
	"internal/obs",      // registry reads fold derived counters; exporters sort or JSON-encode the result
	"internal/server",   // the connection registry and lease table are live serving state, never seeded output
	"internal/analysis", // the analyzers' bookkeeping; findings are sorted by position before output
}

// inMapRangeScope reports whether pkg is held to order-insensitive map
// iteration. Exemptions match by suffix, so fixtures bound to an exempt
// path are exempt too.
func inMapRangeScope(pkg *Package) bool {
	if pkg.Name == "main" {
		return false
	}
	for _, suffix := range mapRangeExempt {
		if pkg.Path == suffix || strings.HasSuffix(pkg.Path, "/"+suffix) {
			return false
		}
	}
	return true
}

func runDeterminism(pass *Pass) {
	info := pass.Pkg.Info
	mapScope := inMapRangeScope(pass.Pkg)

	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				checkNondetFunc(pass, n)
			case *ast.RangeStmt:
				if mapScope {
					checkMapRange(pass, info, n)
				}
			}
			return true
		})
	}
}

// checkNondetFunc flags any use (call or value) of time.Now and of the
// global-source functions of math/rand and math/rand/v2.
func checkNondetFunc(pass *Pass, id *ast.Ident) {
	fn := funcFor(pass.Pkg.Info, id)
	if fn == nil || fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch pkgPathOf(fn) {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(id.Pos(),
				"time.Now breaks fixed-seed reproducibility; inject a clock, or annotate a tool boundary with //lint:allow(determinism)")
		}
	case "math/rand", "math/rand/v2":
		// Constructors of private sources are fine; anything else draws from
		// the per-process global source.
		if !strings.HasPrefix(fn.Name(), "New") {
			pass.Reportf(id.Pos(),
				"%s.%s draws from the process-global random source; use the seeded sim.RNG instead", pkgPathOf(fn), fn.Name())
		}
	}
}

// checkMapRange flags `for ... := range m` over a map when the loop body
// mutates state declared outside the loop — an order-sensitive fold over a
// randomized iteration order.
func checkMapRange(pass *Pass, info *types.Info, rs *ast.RangeStmt) {
	tv, ok := info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	outer := func(e ast.Expr) bool {
		id := rootIdent(e)
		if id == nil {
			return false
		}
		obj := info.ObjectOf(id)
		if _, isVar := obj.(*types.Var); !isVar {
			return false
		}
		return !declaredWithin(obj, rs.Pos(), rs.End())
	}

	mutated := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if mutated {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if outer(lhs) {
					mutated = true
				}
			}
		case *ast.IncDecStmt:
			if outer(n.X) {
				mutated = true
			}
		case *ast.SendStmt:
			mutated = true
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				// delete(m, k) and clear(m) mutate their argument.
				if fun.Name == "delete" || fun.Name == "clear" {
					if len(n.Args) > 0 && outer(n.Args[0]) {
						mutated = true
					}
				}
			case *ast.SelectorExpr:
				// A method call on a receiver that outlives the loop can
				// mutate it; conservatively treat it as state-feeding.
				if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal && outer(fun.X) {
					mutated = true
				}
			}
		}
		return !mutated
	})
	if mutated {
		pass.Reportf(rs.Pos(),
			"map iteration feeds state mutation; Go randomizes map order per run, breaking fixed-seed reproducibility — iterate a sorted or indexed form instead")
	}
}
