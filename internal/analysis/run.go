package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"path/filepath"
	"sort"
)

// Result is one analysis run's output: the surviving findings plus the
// stale-suppression audit.
type Result struct {
	// Diagnostics are the findings that survived //lint:allow suppression,
	// plus problems with the suppression comments themselves, sorted by
	// position.
	Diagnostics []Diagnostic
	// UnusedAllows are //lint:allow comments that suppressed nothing in this
	// run — stale excuses that would silently cover a future regression.
	// Reported separately so callers opt in (`stemlint -unused-allows`): a
	// run over a subset of packages or analyzers legitimately leaves
	// out-of-scope allows unmatched.
	UnusedAllows []Diagnostic
}

// Run executes the analyzers over the loaded packages, applies //lint:allow
// suppressions, and returns the surviving diagnostics sorted by position.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunAll(fset, pkgs, analyzers).Diagnostics
}

// RunAll is Run plus the unused-suppression audit.
func RunAll(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) Result {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			a.Run(&Pass{Analyzer: a, Fset: fset, Pkg: pkg, diags: &diags})
		}
	}

	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	sup := collectSuppressions(fset, pkgs, known)

	kept := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if !sup.allows(d.Analyzer, d.Pos) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, sup.problems...)

	return Result{
		Diagnostics:  sortDiags(kept),
		UnusedAllows: sortDiags(sup.unused()),
	}
}

// sortDiags orders diagnostics by position.
func sortDiags(kept []Diagnostic) []Diagnostic {
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return kept
}

// relFile renders a diagnostic's filename relative to base when possible.
func relFile(base, file string) string {
	if base == "" {
		return file
	}
	if rel, err := filepath.Rel(base, file); err == nil && !filepath.IsAbs(rel) {
		return filepath.ToSlash(rel)
	}
	return file
}

// WriteText prints diagnostics one per line as "file:line:col: [analyzer]
// message", with filenames relative to base.
func WriteText(w io.Writer, diags []Diagnostic, base string) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n",
			relFile(base, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
}

// jsonDiagnostic is the wire form of one finding for -json output.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// WriteJSON prints diagnostics as an indented JSON array (always an array,
// "[]" when clean), with filenames relative to base.
func WriteJSON(w io.Writer, diags []Diagnostic, base string) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			Analyzer: d.Analyzer,
			File:     relFile(base, d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
