package spidernet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryOptionHasASetter is the knob ratchet: every field of the four
// config structs must be assigned (x.F = v) or keyed (T{F: v}) in at least one
// file other than the one declaring it, tests counting. A field nothing sets
// is a constant dressed as an option: make it one, or delete it. Name-based
// on purpose — no type checking: a file counts if it is in, or imports, the
// struct's package; a keyed literal counts unless it names another type.
func TestEveryOptionHasASetter(t *testing.T) {
	fset, files := token.NewFileSet(), map[string]*ast.File{}
	if err := filepath.WalkDir(".", func(p string, _ fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(p, ".go") {
			files[filepath.ToSlash(p)], err = parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for decl, name := range map[string]string{ // declaring file -> struct
		"internal/cluster/cluster.go": "Options", "internal/bcp/engine.go": "Config",
		"internal/recovery/recovery.go": "Config", "internal/federation/federation.go": "Config",
	} {
		dir, unset := path.Dir(decl), map[string]bool{}
		ast.Inspect(files[decl], func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == name {
				for _, f := range ts.Type.(*ast.StructType).Fields.List {
					for _, id := range f.Names {
						unset[id.Name] = true
					}
				}
			}
			return true
		})
		for file, f := range files {
			reaches := path.Dir(file) == dir && file != decl
			for _, im := range f.Imports {
				reaches = reaches || im.Path.Value == `"repro/`+dir+`"`
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							delete(unset, sel.Sel.Name)
						}
					}
				case *ast.CompositeLit:
					if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name != name {
						return true // another package's struct
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								delete(unset, id.Name)
							}
						}
					}
				}
				return reaches
			})
		}
		for field := range unset {
			t.Errorf("%s: %s.%s is set nowhere else: make it a constant or delete it", decl, name, field)
		}
	}
}
