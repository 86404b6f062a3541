package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// commentLines returns the set of lines of f covered by a comment group any
// of whose comments contains marker (e.g. "invariant:"). The whole group is
// marked, so a multi-line comment ending directly above a finding covers it
// no matter which of its lines carries the marker.
func commentLines(fset *token.FileSet, f *ast.File, marker string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		hit := false
		for _, c := range cg.List {
			if strings.Contains(c.Text, marker) {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		for l := fset.Position(cg.Pos()).Line; l <= fset.Position(cg.End()).Line; l++ {
			lines[l] = true
		}
	}
	return lines
}

// parentMap records the parent of every node under root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// rootIdent unwraps selectors, indexing, stars and parens down to the base
// identifier of an lvalue-ish expression: `(*c.shards[i]).stats.Hits` → `c`.
// It returns nil when the base is not a plain identifier (e.g. a call).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside [lo, hi].
func declaredWithin(obj types.Object, lo, hi token.Pos) bool {
	return obj != nil && obj.Pos() != token.NoPos && obj.Pos() >= lo && obj.Pos() <= hi
}

// funcFor returns the *types.Func an identifier resolves to, or nil.
func funcFor(info *types.Info, id *ast.Ident) *types.Func {
	if obj, ok := info.Uses[id].(*types.Func); ok {
		return obj
	}
	return nil
}

// pkgPathOf returns the import path of the package obj belongs to, or "".
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// mutexKind classifies t as a sync mutex: "" if it is not one, otherwise
// "Mutex" or "RWMutex".
func mutexKind(t types.Type) string {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	if n := obj.Name(); n == "Mutex" || n == "RWMutex" {
		return n
	}
	return ""
}

// recvNamed returns the defining *types.Named of a method receiver type,
// looking through pointers and instantiated generics, plus its name.
func recvNamed(t types.Type) (*types.Named, string) {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj() == nil {
		return nil, ""
	}
	return named, named.Obj().Name()
}

// exprTypeName names the defining type of expression e for lock-identity
// purposes: the named type (through pointers/instantiation) of e's type.
func exprTypeName(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok {
		return ""
	}
	_, name := recvNamed(tv.Type)
	return name
}
