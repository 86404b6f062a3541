package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// loadModule writes a throwaway module and loads the given import paths.
func loadModule(t *testing.T, files map[string]string, paths ...string) (*analysis.Loader, []*analysis.Package) {
	t.Helper()
	root := writeModule(t, files)
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(paths...)
	if err != nil {
		t.Fatal(err)
	}
	return loader, pkgs
}

// allocFindings drops the hot-table entries a throwaway hotfix module
// does not declare (the fixture table's Cache.Get, Cache.Put and oldStats),
// leaving the allocation findings under test.
func allocFindings(diags []analysis.Diagnostic) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, d := range diags {
		if !strings.HasPrefix(d.Message, "hot-table ") {
			out = append(out, d)
		}
	}
	return out
}

// TestHotpathPropagation pins the call-transitive half of the analyzer:
// hotness flows from a root through same-package calls, stops at cold-listed
// functions, and never reaches the unreachable.
func TestHotpathPropagation(t *testing.T) {
	loader, pkgs := loadModule(t, map[string]string{
		// The path suffix internal/hotfix selects the fixture hot table:
		// roots Serve and Cache.Get, cold slowStats.
		"internal/hotfix/h.go": strings.Join([]string{
			"package hotfix",
			"",
			"func Serve(k string) []byte {",
			"\tslowStats()",
			"\treturn level1(k)",
			"}",
			"",
			"func level1(k string) []byte { return level2(k) }",
			"",
			"func level2(k string) []byte { return []byte(k) }",
			"",
			"func unreachable(k string) []byte { return []byte(k) }",
			"",
			"func slowStats() map[string]int { return map[string]int{\"gets\": 1} }",
			"",
		}, "\n"),
	}, "m/internal/hotfix")

	diags := allocFindings(analysis.Run(loader.Fset, pkgs, []*analysis.Analyzer{analysis.Hotpath}))
	if len(diags) != 1 {
		var sb strings.Builder
		analysis.WriteText(&sb, diags, loader.Root())
		t.Fatalf("got %d findings, want exactly the level2 conversion:\n%s", len(diags), sb.String())
	}
	d := diags[0]
	if d.Pos.Line != 10 {
		t.Errorf("finding on line %d, want line 10 (level2's conversion)", d.Pos.Line)
	}
	if !strings.Contains(d.Message, "reachable from Serve") {
		t.Errorf("message %q does not name the root", d.Message)
	}
}

// TestHotpathColdBranches pins the failure-path exemptions: err != nil
// bodies, error returns, and pure error assignments may allocate; the
// mixed `v, err :=` form must still propagate hotness.
func TestHotpathColdBranches(t *testing.T) {
	loader, pkgs := loadModule(t, map[string]string{
		"internal/hotfix/h.go": strings.Join([]string{
			"package hotfix",
			"",
			"import \"fmt\"",
			"",
			"func Serve(k string) ([]byte, error) {",
			"\tv, err := fetch(k)",
			"\tif err != nil {",
			"\t\treturn nil, fmt.Errorf(\"serve: %w\", err)", // cold branch
			"\t}",
			"\treturn v, nil",
			"}",
			"",
			"func fetch(k string) ([]byte, error) {",
			"\tif k == \"\" {",
			"\t\treturn nil, fmt.Errorf(\"empty\")", // error return
			"\t}",
			"\treturn []byte(k), nil", // hot via the mixed assignment edge
			"}",
			"",
		}, "\n"),
	}, "m/internal/hotfix")

	diags := allocFindings(analysis.Run(loader.Fset, pkgs, []*analysis.Analyzer{analysis.Hotpath}))
	if len(diags) != 1 {
		var sb strings.Builder
		analysis.WriteText(&sb, diags, loader.Root())
		t.Fatalf("got %d findings, want exactly fetch's conversion:\n%s", len(diags), sb.String())
	}
	if d := diags[0]; d.Pos.Line != 17 || !strings.Contains(d.Message, "string→[]byte") {
		t.Errorf("finding = line %d %q, want the line-17 conversion", d.Pos.Line, d.Message)
	}
}

// TestGoleakWaiterMatching pins both halves of the lifecycle check: the
// launched function must defer Done, and the launcher must Add on the same
// waiter before the go statement. Main packages are exempt.
func TestGoleakWaiterMatching(t *testing.T) {
	loader, pkgs := loadModule(t, map[string]string{
		"lib/lib.go": strings.Join([]string{
			"package lib",
			"",
			"import \"sync\"",
			"",
			"type Pool struct{ wg sync.WaitGroup }",
			"",
			"func (p *Pool) Tracked() {",
			"\tp.wg.Add(1)",
			"\tgo func() { defer p.wg.Done() }()",
			"}",
			"",
			"func (p *Pool) Named() {",
			"\tp.wg.Add(1)",
			"\tgo p.worker()",
			"}",
			"",
			"func (p *Pool) worker() { defer p.wg.Done() }",
			"",
			"func (p *Pool) Untracked() {",
			"\tgo func() {}()", // line 20: no Done at all
			"}",
			"",
			"func (p *Pool) Uncounted() {",
			"\tgo func() { defer p.wg.Done() }()", // line 24: Done without Add
			"}",
			"",
		}, "\n"),
		"cmd/x/main.go": strings.Join([]string{
			"package main",
			"",
			"func main() {",
			"\tgo func() {}()", // exempt: process exit is main's join
			"}",
			"",
		}, "\n"),
	}, "m/lib", "m/cmd/x")

	diags := analysis.Run(loader.Fset, pkgs, []*analysis.Analyzer{analysis.Goleak})
	if len(diags) != 2 {
		var sb strings.Builder
		analysis.WriteText(&sb, diags, loader.Root())
		t.Fatalf("got %d findings, want the two broken launches:\n%s", len(diags), sb.String())
	}
	if d := diags[0]; d.Pos.Line != 20 || !strings.Contains(d.Message, "not tied to a tracked waiter") {
		t.Errorf("first finding = line %d %q, want the untracked launch on line 20", d.Pos.Line, d.Message)
	}
	if d := diags[1]; d.Pos.Line != 24 || !strings.Contains(d.Message, "never calls Pool.wg.Add()") {
		t.Errorf("second finding = line %d %q, want the uncounted launch on line 24", d.Pos.Line, d.Message)
	}
}

// TestUnusedAllowAudit pins the stale-suppression report: an allow that
// suppressed a finding is used; one that matched nothing is reported under
// UnusedAllows without polluting Diagnostics.
func TestUnusedAllowAudit(t *testing.T) {
	loader, pkgs := loadModule(t, map[string]string{
		"a/a.go": strings.Join([]string{
			"package a",
			"",
			"import \"time\"",
			"",
			"// T reads the clock.",
			"//lint:allow(determinism) fixture: the clock read is the point",
			"var T = time.Now",
			"",
			"//lint:allow(determinism) stale: nothing on this line triggers",
			"var N = 1", // line 10
			"",
		}, "\n"),
	}, "m/a")

	res := analysis.RunAll(loader.Fset, pkgs, analysis.All())
	if len(res.Diagnostics) != 0 {
		var sb strings.Builder
		analysis.WriteText(&sb, res.Diagnostics, loader.Root())
		t.Errorf("unexpected findings:\n%s", sb.String())
	}
	if len(res.UnusedAllows) != 1 {
		var sb strings.Builder
		analysis.WriteText(&sb, res.UnusedAllows, loader.Root())
		t.Fatalf("got %d unused allows, want 1:\n%s", len(res.UnusedAllows), sb.String())
	}
	d := res.UnusedAllows[0]
	if d.Pos.Line != 9 || d.Analyzer != "lint" || !strings.Contains(d.Message, "unused suppression") {
		t.Errorf("unused allow = line %d [%s] %q, want the line-9 stale comment", d.Pos.Line, d.Analyzer, d.Message)
	}
}
