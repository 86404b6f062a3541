// Command stemlint runs the repository's project-specific static analyzers
// (see internal/analysis and DESIGN.md §9) over the module:
//
//	go run ./cmd/stemlint ./...                 # the CI gate
//	go run ./cmd/stemlint -json ./...           # machine-readable findings
//	go run ./cmd/stemlint -unused-allows ./...  # also fail on stale suppressions
//	go run ./cmd/stemlint -list                 # the analyzer suite
//
// Exit status: 0 when clean, 1 when any diagnostic survives suppression,
// 2 on usage or load errors. Findings are suppressed line by line with
// `//lint:allow(<analyzer>) reason`; the reason is mandatory. With
// -unused-allows, suppressions that no longer match any finding are
// reported (and fail the run) too — run it over the whole module, since a
// subset run legitimately leaves out-of-scope allows unmatched.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array")
		list    = flag.Bool("list", false, "list the analyzers and exit")
		unused  = flag.Bool("unused-allows", false, "also report //lint:allow comments that suppressed nothing")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: stemlint [-json] [-unused-allows] [packages]\n       stemlint -list\n\nRuns the project analyzers (default pattern ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "stemlint:", err)
		os.Exit(2)
	}

	root, err := findModuleRoot()
	if err != nil {
		fail(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fail(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := loader.Expand(patterns...)
	if err != nil {
		fail(err)
	}
	pkgs, err := loader.Load(paths...)
	if err != nil {
		fail(err)
	}

	res := analysis.RunAll(loader.Fset, pkgs, analysis.All())
	diags := res.Diagnostics
	if *unused {
		diags = append(diags, res.UnusedAllows...)
	}
	base, err := os.Getwd()
	if err != nil {
		base = root
	}
	if *jsonOut {
		if err := analysis.WriteJSON(os.Stdout, diags, base); err != nil {
			fail(err)
		}
	} else {
		analysis.WriteText(os.Stdout, diags, base)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "stemlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
