package analysis

import (
	"go/ast"
	"strings"
)

// APIDoc enforces documentation on every library surface: each exported
// symbol of a non-main package carries a godoc comment, and the comment
// opens with the symbol's name (optionally after "A", "An" or "The"), so
// rendered godoc reads as reference material.
// Grouped declarations — `const (...)` / `type (...)` blocks — may share
// one block comment; individual specs inside a documented block are exempt
// from the name rule but must still be covered by some comment.
var APIDoc = &Analyzer{
	Name: "apidoc",
	Doc:  "exported symbols of every non-main package must carry godoc comments opening with the symbol name",
	Run:  runAPIDoc,
}

func runAPIDoc(pass *Pass) {
	if pass.Pkg.Name == "main" {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFuncDoc(pass, d)
			case *ast.GenDecl:
				checkGenDeclDoc(pass, d)
			}
		}
	}
}

func checkFuncDoc(pass *Pass, d *ast.FuncDecl) {
	if !d.Name.IsExported() {
		return
	}
	// Methods on unexported receivers are not part of the public surface.
	if d.Recv != nil && len(d.Recv.List) > 0 {
		if base := receiverTypeName(d.Recv.List[0].Type); base != "" && !ast.IsExported(base) {
			return
		}
	}
	if d.Doc == nil {
		pass.Reportf(d.Name.Pos(), "exported %s %s is undocumented", declKind(d), d.Name.Name)
		return
	}
	checkNameConvention(pass, d.Name, d.Doc)
}

func declKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// receiverTypeName extracts the base type name of a method receiver.
func receiverTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func checkGenDeclDoc(pass *Pass, d *ast.GenDecl) {
	grouped := d.Lparen.IsValid()
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			checkSpecDoc(pass, d, grouped, s.Name, s.Doc, s.Comment)
		case *ast.ValueSpec:
			for _, name := range s.Names {
				checkSpecDoc(pass, d, grouped, name, s.Doc, s.Comment)
			}
		}
	}
}

func checkSpecDoc(pass *Pass, d *ast.GenDecl, grouped bool, name *ast.Ident, doc, line *ast.CommentGroup) {
	if !name.IsExported() || name.Name == "_" {
		return
	}
	if !grouped {
		// Standalone declaration: the decl doc is the symbol's doc.
		if d.Doc == nil && doc == nil && line == nil {
			pass.Reportf(name.Pos(), "exported %s %s is undocumented", genKind(d), name.Name)
			return
		}
		if doc == nil {
			doc = d.Doc
		}
		if doc != nil {
			checkNameConvention(pass, name, doc)
		}
		return
	}
	// Grouped: per-spec doc wins; otherwise the block comment must exist.
	if doc != nil {
		checkNameConvention(pass, name, doc)
		return
	}
	if line == nil && d.Doc == nil {
		pass.Reportf(name.Pos(), "exported %s %s is undocumented: give it a doc comment or document its declaration group", genKind(d), name.Name)
	}
}

func genKind(d *ast.GenDecl) string { return d.Tok.String() }

// checkNameConvention verifies the godoc convention: the comment's first
// word is the symbol name, optionally preceded by an article.
func checkNameConvention(pass *Pass, name *ast.Ident, doc *ast.CommentGroup) {
	words := strings.Fields(doc.Text())
	if len(words) == 0 {
		pass.Reportf(name.Pos(), "doc comment for %s is empty", name.Name)
		return
	}
	first := words[0]
	if (first == "A" || first == "An" || first == "The" || first == "Deprecated:") && len(words) > 1 {
		first = words[1]
	}
	if strings.TrimRight(first, ".,:;") != name.Name {
		pass.Reportf(name.Pos(), "doc comment for %s should open with the symbol name (godoc convention), e.g. %q", name.Name, name.Name+" ...")
	}
}
