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
//     floating-point accumulation) diverges. This check is scoped to the
//     mechanism packages, where every iteration feeds simulator state.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clocks, the global math/rand source, and order-sensitive map iteration in the mechanism packages",
	Run:  runDeterminism,
}

// determinismMapRangePkgs are the packages whose state must evolve
// identically across runs: the simulator mechanism packages and the
// stemcache eviction path. The time.Now / global-rand checks apply to every
// package; the map-range check only to these.
var determinismMapRangePkgs = map[string]bool{
	"internal/core":      true,
	"internal/sim":       true,
	"internal/sbc":       true,
	"internal/policy":    true,
	"internal/selector":  true,
	"internal/dip":       true,
	"internal/vway":      true,
	"internal/stemcache": true,
	"internal/cluster":   true,
}

// inMapRangeScope reports whether the package's import path ends in one of
// the scoped suffixes (matching both real paths and test fixtures bound to
// them).
func inMapRangeScope(path string) bool {
	for suffix := range determinismMapRangePkgs {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

func runDeterminism(pass *Pass) {
	info := pass.Pkg.Info
	mapScope := inMapRangeScope(pass.Pkg.Path)

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
