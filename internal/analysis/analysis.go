// Package analysis is a small, stdlib-only static-analysis framework
// (go/parser + go/ast + go/types — deliberately no x/tools dependency) plus
// the project-specific analyzers that keep this repository's load-bearing
// conventions machine-checked:
//
//   - determinism: fixed-seed simulator runs must stay bit-reproducible, so
//     the mechanism packages must not read wall clocks, the global math/rand
//     source, or mutate state while ranging over a map (Go randomizes map
//     iteration order per run).
//   - atomics: every metric cell in internal/obs is read concurrently with
//     the simulation, so cell fields must only be touched through sync/atomic
//     and every exported metric method must keep the package's documented
//     nil-receiver guarantee.
//   - lockorder: each serving package's lock hierarchy (the ranks
//     lockRankFor selects: stemcache, server, cluster, membership) must
//     stay acyclic and non-reentrant, defers must not pile unlocks up
//     inside loops, and every panic must be documented as an
//     // invariant: violation.
//   - apidoc: the serving-tier libraries (stemcache, wire, server, client,
//     cluster) are the product surface; every exported symbol carries a doc
//     comment in godoc form.
//   - hotpath: the serving path (wire codec, server loop, client transport,
//     cache read) must not allocate in steady state, so functions
//     call-reachable from each package's hot-root table are flagged for
//     allocation-causing constructs; error branches are auto-exempt and the
//     static claim is cross-checked by the AllocsPerRun benchmark gates.
//   - goleak: every go statement in a library package must be bracketed by
//     a tracked waiter (wg.Add before launch, defer wg.Done inside), so no
//     goroutine outlives its component's Close.
//
// The cmd/stemlint driver loads, typechecks and runs the suite over ./...;
// see DESIGN.md §9 for the invariant each analyzer encodes and why -race or
// fixed-seed tests alone cannot enforce it.
//
// Findings can be suppressed line by line with
//
//	//lint:allow(<analyzer>) <reason>
//
// which silences matching diagnostics on its own line and the line directly
// below it. The reason is mandatory: a bare //lint:allow(...) is itself
// reported.
package analysis

import (
	"fmt"
	"go/token"
)

// Diagnostic is one finding: an analyzer name, a resolved source position
// and a human-readable message.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Analyzer is one named check. Exactly one of Run (invoked once per
// package) or RunModule (invoked once with every loaded package, for
// cross-package checks) must be set.
type Analyzer struct {
	// Name is the identifier used in output and in //lint:allow comments.
	Name string
	// Doc is a one-line description shown by `stemlint -list`.
	Doc string
	// Run analyzes a single package.
	Run func(*Pass)
	// RunModule analyzes the whole loaded module at once.
	RunModule func(*ModulePass)
}

// Pass carries one package through one analyzer and collects its findings.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries every loaded package through one module-level analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Packages []*Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in presentation order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, Atomics, LockOrder, APIDoc, Hotpath, Goleak}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
