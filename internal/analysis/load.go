package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and typechecked package.
type Package struct {
	// Path is the import path ("repro/internal/core", ...).
	Path string
	// Name is the package name from the source ("stem", "core", "main").
	Name string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Filenames are the absolute paths of the parsed files, sorted.
	Filenames []string
	// Files are the parsed files, parallel to Filenames.
	Files []*ast.File
	// Types is the typechecked package.
	Types *types.Package
	// Info holds the type-checker's resolution tables.
	Info *types.Info
}

// Loader parses and typechecks packages of one module. Module-internal
// imports are resolved recursively from source; standard-library imports are
// delegated to go/importer's source importer, so the loader needs nothing
// beyond GOROOT — no export data, no x/tools, no `go list` subprocess.
type Loader struct {
	// Fset is the shared position table for every loaded file.
	Fset *token.FileSet

	root    string
	module  string
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
	overlay map[string]string // import path -> dir, for test fixtures
}

// NewLoader builds a loader for the module rooted at root (the directory
// holding go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    abs,
		module:  mod,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
		overlay: map[string]string{},
	}, nil
}

// Module returns the module path from go.mod.
func (l *Loader) Module() string { return l.module }

// Root returns the absolute module root directory.
func (l *Loader) Root() string { return l.root }

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Bind maps importPath onto dir, overriding normal resolution. Tests use it
// to load a fixture directory as if it were a real module package, so that
// path-scoped analyzers fire on fixture code.
func (l *Loader) Bind(importPath, dir string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = dir
	}
	l.overlay[importPath] = abs
}

// Expand resolves package patterns to import paths. Supported forms:
// "./..." (every package under the module root), "./dir" and "./dir/..."
// (relative to the module root), and plain module import paths.
func (l *Loader) Expand(patterns ...string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			paths, err := l.walk(l.root)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			dir := filepath.Join(l.root, strings.TrimSuffix(pat, "/..."))
			paths, err := l.walk(dir)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case pat == ".":
			add(l.module)
		case strings.HasPrefix(pat, "./"):
			rel := strings.TrimPrefix(pat, "./")
			if rel == "" {
				add(l.module)
			} else {
				add(l.module + "/" + filepath.ToSlash(rel))
			}
		default:
			add(pat)
		}
	}
	return out, nil
}

// walk finds every directory under dir containing at least one non-test Go
// file, returning the corresponding import paths. testdata, vendor and
// hidden/underscore directories are skipped, mirroring the go tool.
func (l *Loader) walk(dir string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != dir && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := goFiles(path)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.module)
		} else {
			out = append(out, l.module+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	return out, err
}

// goFiles lists the non-test .go files of dir, sorted.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out, nil
}

// Load parses and typechecks the packages named by the given import paths
// (after Expand), returning them in a stable order.
func (l *Loader) Load(paths ...string) ([]*Package, error) {
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	var out []*Package
	for _, p := range sorted {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// dirFor resolves an import path to the directory holding its source.
func (l *Loader) dirFor(path string) (string, bool) {
	if dir, ok := l.overlay[path]; ok {
		return dir, true
	}
	if path == l.module {
		return l.root, true
	}
	if rest, ok := strings.CutPrefix(path, l.module+"/"); ok {
		return filepath.Join(l.root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// load parses and typechecks one module package, memoized by import path.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("analysis: %s is not a module package", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	filenames, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(filenames) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(filenames))
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: typechecking %s: %w", path, typeErrs[0])
	}

	pkg := &Package{
		Path:      path,
		Name:      files[0].Name.Name,
		Dir:       dir,
		Filenames: filenames,
		Files:     files,
		Types:     tpkg,
		Info:      info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: module packages load from source through
// the loader itself, everything else falls through to the standard library's
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirFor(path); ok {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
