package spidernet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyOptions are the config fields that only tests and benchmarks set,
// each with the reason it is a field all the same. The list is closed: an
// entry the ratchet below no longer needs fails it too.
var testOnlyOptions = map[string]string{
	"cluster.Options.QpLossMax": "the only way to get lossy components",

	"bcp.Config.DisableCommutation":     "ablation bench EXPERIMENTS.md tabulates",
	"bcp.Config.RandomNextHop":          "ablation bench EXPERIMENTS.md tabulates",
	"bcp.Config.DisableSoftReservation": "ablation bench EXPERIMENTS.md tabulates",
	"recovery.Config.U":                 "the Eq. 2 unit tests set it; no ablation bench does",
	"recovery.Config.MaxBackups":        "the Eq. 2 unit tests set it; no ablation bench does",
	"recovery.Config.DisjointBackups":   "ablation bench EXPERIMENTS.md tabulates",
}

// wiring is the closed list of exported fields a protocol runtime struct may
// have: what a deployment plugs in — the load plane and the observability
// sinks — never a knob. Everything tunable belongs in a config struct.
var wiring = map[string]bool{"Load": true, "Trace": true, "Ctr": true, "Met": true}

// TestEveryOptionHasASetter is the knob ratchet: every field of the config
// structs, and every exported field of the runtime structs, must be assigned
// (x.F = v) or keyed (T{F: v}) in at least one non-test file other than the
// one declaring it. A field nothing sets is a constant dressed as an option,
// and one only tests set is a capability no deployment has: make it a
// constant, delete it, or give testOnlyOptions the reason. A runtime struct's
// exported fields must moreover be wiring. Name-based on purpose — no type
// checking: a file counts if it is in, or imports, the struct's package; a
// keyed literal counts unless it names another type. The count of fields it
// covers is logged, so a change's knob delta shows in go test -v.
func TestEveryOptionHasASetter(t *testing.T) {
	fset, files := token.NewFileSet(), map[string]*ast.File{}
	if err := filepath.WalkDir(".", func(p string, _ fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			files[filepath.ToSlash(p)], err = parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	allowed, covered := maps.Clone(testOnlyOptions), 0
	for _, s := range []struct {
		decl, name string // declaring file, struct
		runtime    bool   // exported fields only, and those wiring
	}{
		{"internal/cluster/cluster.go", "Options", false}, {"internal/bcp/engine.go", "LoadOptions", false},
		{"internal/topology/overlay.go", "OverlayConfig", false}, {"internal/bcp/engine.go", "Config", false},
		{"internal/recovery/recovery.go", "Config", false}, {"internal/federation/federation.go", "Config", false},
		{"internal/bcp/engine.go", "Engine", true}, {"internal/dht/node.go", "Node", true},
		{"internal/recovery/recovery.go", "Manager", true},
	} {
		decl, name := s.decl, s.name
		dir, unset := path.Dir(decl), map[string]bool{}
		ast.Inspect(files[decl], func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == name {
				for _, f := range ts.Type.(*ast.StructType).Fields.List {
					for _, id := range f.Names {
						if !s.runtime {
							unset[id.Name] = true
						} else if id.IsExported() {
							unset[id.Name] = true
							if !wiring[id.Name] {
								t.Errorf("%s: %s.%s is exported but not wiring (Load, Trace, Ctr, Met): a knob belongs in a config struct", decl, name, id.Name)
							}
						}
					}
				}
			}
			return true
		})
		if len(unset) == 0 {
			t.Errorf("%s declares no struct %s with fields", decl, name)
		}
		covered += len(unset)
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
			key := path.Base(dir) + "." + name + "." + field
			if _, ok := allowed[key]; ok {
				delete(allowed, key)
				continue
			}
			t.Errorf("%s: %s.%s is set by no non-test file but its own: make it a constant, delete it, or give testOnlyOptions the reason", decl, name, field)
		}
	}
	for key := range allowed {
		t.Errorf("testOnlyOptions[%q]: no such field, or non-test code sets it now: drop the entry", key)
	}
	t.Logf("knobs: %d settable fields", covered)
}
