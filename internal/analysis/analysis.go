// Package analysis is a small, stdlib-only static-analysis framework
// (go/parser + go/ast + go/types — deliberately no x/tools dependency) plus
// the project-specific analyzers that keep this repository's load-bearing
// conventions machine-checked:
//
//   - determinism: fixed-seed runs must stay bit-reproducible, so no
//     package may read the wall clock or the global math/rand source, and no
//     non-main package but obs, server and analysis may mutate state while
//     ranging over a map (Go randomizes map iteration order per run).
//   - lockorder: a package declares its lock order on its mutex fields
//     (`//lint:rank N`, outer locks first) and must acquire in that order;
//     in every package no mutex may be re-acquired, directly or through a
//     call, defers must not pile unlocks up inside loops, and every panic
//     must be documented as an // invariant: violation.
//   - apidoc: every exported symbol of a non-main package carries a doc
//     comment in godoc form.
//
// Each of the three catches a mutation no test does. Properties a test can
// measure are left to tests: allocations per operation to the AllocsPerRun
// count gates, goroutine joins to the Close tests, and metric cells to
// go vet's copylocks check, -race and obs's nil-receiver test.
//
// The cmd/stemlint driver loads, typechecks and runs the suite over ./...;
// see DESIGN.md §8.1 for the invariant each analyzer encodes and why -race or
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

// Analyzer is one named check, run once per package.
type Analyzer struct {
	// Name is the identifier used in output and in //lint:allow comments.
	Name string
	// Doc is a one-line description shown by `stemlint -list`.
	Doc string
	// Run analyzes a single package.
	Run func(*Pass)
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

// All returns the full analyzer suite in presentation order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, LockOrder, APIDoc}
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
