// Smoke coverage for the runnable examples: each must build and execute to
// completion with useful output. The examples double as the public API's
// integration tests — if one stops compiling or crashes, the README's
// entry points are broken.
package examples_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// programs lists every subdirectory of examples/ that holds a main.go, so a
// new example is smoke-tested without being registered here.
func programs(t *testing.T) []string {
	t.Helper()
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if _, err := os.Stat(filepath.Join(e.Name(), "main.go")); e.IsDir() && err == nil {
			out = append(out, e.Name())
		}
	}
	if len(out) == 0 {
		t.Fatal("no example programs found")
	}
	return out
}

func TestExamplesBuildAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples take ~10s combined; skipped in -short mode")
	}
	bindir := t.TempDir()
	for _, name := range programs(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bin := filepath.Join(bindir, name)
			build := exec.Command("go", "build", "-o", bin, "./"+name)
			build.Dir = "." // examples/
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("go build ./%s: %v\n%s", name, err, out)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin)
			out, err := cmd.Output()
			if err != nil {
				var stderr []byte
				if ee, ok := err.(*exec.ExitError); ok {
					stderr = ee.Stderr
				}
				t.Fatalf("%s failed: %v\n%s", name, err, stderr)
			}
			if len(out) == 0 {
				t.Fatalf("%s produced no output", name)
			}
		})
	}
}

func TestMain(m *testing.M) {
	// go test runs with CWD = examples/; make sure that holds even if the
	// harness changes (the build commands rely on it).
	if _, err := os.Stat("quickstart"); err != nil {
		panic("examples smoke test must run from the examples/ directory: " + err.Error())
	}
	os.Exit(m.Run())
}
