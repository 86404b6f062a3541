package analysis_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// fixtureCases binds each fixture directory to the import path that puts it
// in the matching analyzer's scope. Each fixture runs under the FULL suite:
// the golden files therefore also pin which analyzers stay silent.
var fixtureCases = []struct {
	name   string // fixture dir under testdata/src and golden file stem
	path   string // import path the fixture is bound to
	target string // analyzer the fixture must trip at least once
}{
	{name: "det", path: "fixture/internal/sim", target: "determinism"},
	{name: "cachefix", path: "fixture/internal/stemcache", target: "lockorder"},
	{name: "tenantfix", path: "fixture2/internal/stemcache", target: "lockorder"},
	{name: "serverfix", path: "fixture/internal/server", target: "lockorder"},
	{name: "clusterfix", path: "fixture/internal/cluster", target: "lockorder"},
	{name: "memberfix", path: "fixture/internal/membership", target: "lockorder"},
}

// newFixtureLoader returns a loader rooted at the module with every fixture
// bound. Sharing one loader across subtests typechecks the stdlib once.
func newFixtureLoader(t *testing.T) *analysis.Loader {
	t.Helper()
	loader, err := analysis.NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fixtureCases {
		loader.Bind(c.path, filepath.Join("testdata", "src", c.name))
	}
	return loader
}

func TestAnalyzersGolden(t *testing.T) {
	loader := newFixtureLoader(t)
	for _, c := range fixtureCases {
		t.Run(c.name, func(t *testing.T) {
			pkgs, err := loader.Load(c.path)
			if err != nil {
				t.Fatal(err)
			}
			diags := analysis.Run(loader.Fset, pkgs, analysis.All())

			var sb strings.Builder
			base, err := filepath.Abs(filepath.Join("testdata", "src", c.name))
			if err != nil {
				t.Fatal(err)
			}
			analysis.WriteText(&sb, diags, base)
			got := sb.String()

			goldenPath := filepath.Join("testdata", "golden", c.name+".txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/analysis -run Golden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings differ from %s.\ngot:\n%swant:\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestFixturesAreDirty guards the golden files themselves: every fixture must
// produce at least one finding for its target analyzer, otherwise a silently
// broken analyzer would shrink the goldens to nothing and still "pass" after
// -update.
func TestFixturesAreDirty(t *testing.T) {
	loader := newFixtureLoader(t)
	for _, c := range fixtureCases {
		pkgs, err := loader.Load(c.path)
		if err != nil {
			t.Fatal(err)
		}
		diags := analysis.Run(loader.Fset, pkgs, analysis.All())
		found := false
		for _, d := range diags {
			if d.Analyzer == c.target {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fixture %s produced no %s findings", c.name, c.target)
		}
	}
}
