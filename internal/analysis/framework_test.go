package analysis_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// writeModule materializes a throwaway module in a temp dir: files maps
// module-relative paths to contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module m\n\ngo 1.24\n"
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

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

func TestLoaderExpand(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a/a.go":             "package a\n",
		"b/sub/s.go":         "package sub\n",
		"b/sub/s_test.go":    "package sub\n", // test files never count
		"testdata/x/x.go":    "package x\n",   // skipped like the go tool
		"_attic/old.go":      "package old\n", // underscore dirs skipped
		"c/README.md":        "no go files here\n",
		"root.go":            "package m\n",
		"a/deep/testonly.go": "package deep\n",
	})
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if loader.Module() != "m" {
		t.Fatalf("Module() = %q, want m", loader.Module())
	}

	paths, err := loader.Expand("./...")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	want := []string{"m", "m/a", "m/a/deep", "m/b/sub"}
	if strings.Join(paths, " ") != strings.Join(want, " ") {
		t.Fatalf("Expand(./...) = %v, want %v", paths, want)
	}

	for pattern, want := range map[string]string{
		".":       "m",
		"./a":     "m/a",
		"m/b/sub": "m/b/sub",
	} {
		got, err := loader.Expand(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != want {
			t.Errorf("Expand(%q) = %v, want [%s]", pattern, got, want)
		}
	}
}

func TestLoadAndTypecheck(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport \"m/b\"\n\n// V re-exports b's value.\nvar V = b.V\n",
		"b/b.go": "package b\n\n// V is a fixture value.\nvar V = 42\n",
	})
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("m/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Name != "a" || pkgs[0].Types == nil {
		t.Fatalf("Load(m/a) = %+v", pkgs)
	}

	if _, err := loader.Load("m/missing"); err == nil {
		t.Error("Load of a nonexistent package did not error")
	}
}

func TestLoadReportsTypeErrors(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nvar V int = \"not an int\"\n",
	})
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load("m/a"); err == nil {
		t.Fatal("Load of an ill-typed package did not error")
	}
}

func TestSuppressionProblems(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a/a.go": strings.Join([]string{
			"package a",
			"",
			"func f() {",
			"\t//lint:allow(determinism)", // missing reason
			"\t_ = 1",
			"\t//lint:allow(bogus) some reason", // unknown analyzer
			"\t_ = 2",
			"}",
			"",
		}, "\n"),
	})
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("m/a")
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run(loader.Fset, pkgs, analysis.All())
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %+v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "lint" {
			t.Errorf("diagnostic attributed to %q, want lint", d.Analyzer)
		}
	}
	if !strings.Contains(diags[0].Message, "missing a reason") {
		t.Errorf("first message = %q, want missing-reason complaint", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, `unknown analyzer "bogus"`) {
		t.Errorf("second message = %q, want unknown-analyzer complaint", diags[1].Message)
	}
}

func TestWriteOutputs(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport \"time\"\n\n// T reads the clock.\nvar T = time.Now\n",
	})
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("m/a")
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run(loader.Fset, pkgs, analysis.All())
	if len(diags) != 1 || diags[0].Analyzer != "determinism" {
		t.Fatalf("diags = %+v, want one determinism finding", diags)
	}

	var text strings.Builder
	analysis.WriteText(&text, diags, root)
	if want := "a/a.go:6:14: [determinism]"; !strings.HasPrefix(text.String(), want) {
		t.Errorf("WriteText = %q, want prefix %q", text.String(), want)
	}

	var jsonOut strings.Builder
	if err := analysis.WriteJSON(&jsonOut, diags, root); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"analyzer": "determinism"`, `"file": "a/a.go"`, `"line": 6`} {
		if !strings.Contains(jsonOut.String(), frag) {
			t.Errorf("WriteJSON output missing %s:\n%s", frag, jsonOut.String())
		}
	}
}

// apidocSrc breaks each apidoc rule once — an undocumented function, type,
// method, grouped const and var, and a doc comment that does not open with
// its name — beside every sanctioned form.
const apidocSrc = `package p

// Documented is the sanctioned form: a doc comment opening with the name.
func Documented() {}

func Undocumented() {}

// This comment does not open with the symbol name.
func Misnamed() {}

// A Wrapper may start with an article.
type Wrapper struct{}

type Bare struct{}

// String is documented, and methods on unexported receivers are exempt.
func (w *Wrapper) String() string { return "" }

func (w *Wrapper) Undoc() {}

type hidden struct{}

func (h hidden) Exported() {} // exempt: unexported receiver

// Grouped constants may share one block comment.
const (
	GroupedA = iota
	GroupedB
)

const (
	LooseA = iota
	// LooseB is individually documented.
	LooseB
)

var Loose int

// Deprecated: OldName has been replaced by Documented.
func OldName() {}
`

// TestAPIDocScope pins apidoc's rules and its scope: a serving-tier library
// gets all six findings; another internal package and the module root get
// none.
func TestAPIDocScope(t *testing.T) {
	root := writeModule(t, map[string]string{
		"p.go":                 apidocSrc,
		"internal/client/p.go": apidocSrc,
		"internal/core/p.go":   apidocSrc,
	})
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("m", "m/internal/client", "m/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	analysis.WriteText(&got, analysis.Run(loader.Fset, pkgs, []*analysis.Analyzer{analysis.APIDoc}), root)
	const want = `internal/client/p.go:6:6: [apidoc] exported function Undocumented is undocumented; this package is part of the documented product surface
internal/client/p.go:9:6: [apidoc] doc comment for Misnamed should open with the symbol name (godoc convention), e.g. "Misnamed ..."
internal/client/p.go:14:6: [apidoc] exported type Bare is undocumented; this package is part of the documented product surface
internal/client/p.go:19:19: [apidoc] exported method Undoc is undocumented; this package is part of the documented product surface
internal/client/p.go:32:2: [apidoc] exported const LooseA is undocumented: give it a doc comment or document its declaration group
internal/client/p.go:37:5: [apidoc] exported var Loose is undocumented; this package is part of the documented product surface
`
	if got.String() != want {
		t.Errorf("apidoc findings:\n%swant:\n%s", got.String(), want)
	}
}

// mapRangeSrc folds a map into state that outlives the loop: the
// order-sensitive iteration determinism's map-range check exists for.
const mapRangeSrc = `package p

// Sum folds m in iteration order.
func Sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
`

// TestDeterminismMapRangeScope pins the map-range check's scope: every
// non-main package except the serving boundary (obs, server) and the
// analyzers themselves.
func TestDeterminismMapRangeScope(t *testing.T) {
	files := map[string]string{"cmd/tool/main.go": strings.Replace(mapRangeSrc, "package p", "package main", 1)}
	paths := []string{"m/cmd/tool"}
	for _, dir := range []string{"internal/membership", "internal/trace", "internal/obs", "internal/server", "internal/analysis"} {
		files[dir+"/p.go"] = mapRangeSrc
		paths = append(paths, "m/"+dir)
	}
	loader, pkgs := loadModule(t, files, paths...)
	var got strings.Builder
	analysis.WriteText(&got, analysis.Run(loader.Fset, pkgs, []*analysis.Analyzer{analysis.Determinism}), loader.Root())
	const msg = "map iteration feeds state mutation; Go randomizes map order per run, breaking fixed-seed reproducibility — iterate a sorted or indexed form instead\n"
	want := "internal/membership/p.go:6:2: [determinism] " + msg +
		"internal/trace/p.go:6:2: [determinism] " + msg
	if got.String() != want {
		t.Errorf("determinism findings:\n%swant:\n%s", got.String(), want)
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

func TestByName(t *testing.T) {
	for _, name := range []string{"determinism", "lockorder", "apidoc"} {
		if a := analysis.ByName(name); a == nil || a.Name != name {
			t.Errorf("ByName(%q) = %v", name, a)
		}
	}
	if a := analysis.ByName("nope"); a != nil {
		t.Errorf("ByName(nope) = %v, want nil", a)
	}
}

// TestRepoIsClean is the in-tree version of the CI gate: the full analyzer
// suite over the real module must be silent.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module typecheck is slow; run without -short")
	}
	loader, err := analysis.NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand("./...")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(paths...)
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.RunAll(loader.Fset, pkgs, analysis.All())
	if len(res.Diagnostics) != 0 {
		var sb strings.Builder
		analysis.WriteText(&sb, res.Diagnostics, loader.Root())
		t.Errorf("the repository has %d unsuppressed findings:\n%s", len(res.Diagnostics), sb.String())
	}
	if len(res.UnusedAllows) != 0 {
		var sb strings.Builder
		analysis.WriteText(&sb, res.UnusedAllows, loader.Root())
		t.Errorf("the repository has %d stale //lint:allow comments:\n%s", len(res.UnusedAllows), sb.String())
	}
}

// TestNoAllowsInTestFiles: the loader reads no _test.go file, so a
// //lint:allow comment in one never matches a finding and -unused-allows
// cannot see it either. Fixture strings that spell the syntax are literals,
// not comments, and pass.
func TestNoAllowsInTestFiles(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				if strings.HasPrefix(c.Text, "//lint:allow(") {
					t.Errorf("%s: %s is never read: stemlint does not load test files", fset.Position(c.Pos()), c.Text)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
