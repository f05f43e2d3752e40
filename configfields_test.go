package lass_test

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"

	"lass/internal/analysis"
)

// guardedConfigs are the configuration structs whose every field must have
// a real caller.
var guardedConfigs = []string{
	"lass/internal/federation.Config",
	"lass/internal/controller.Config",
	"lass/internal/core.Config",
}

// namedOf returns "path.Name" for a (pointer to a) named type, or "".
func namedOf(t types.Type) (*types.Named, string) {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return nil, ""
	}
	return n, n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// TestConfigFieldsHaveCallers fails when a field of a guarded Config is set
// — by a keyed composite literal or by an assignment — in no non-test Go
// file outside its declaring package (benchmark/ included). A knob only
// tests set has one value in use, so it belongs in a constant. Fields are
// matched through the type checker, never by name, so a like-named field
// of another struct does not count.
func TestConfigFieldsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := analysis.Load(".", []string{"./..."}, false)
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool) // "path.Type.Field"
	fields := make(map[string][]string)
	for _, p := range pkgs {
		mark := func(typ, field string) {
			if !strings.HasPrefix(typ, p.Path+".") {
				set[typ+"."+field] = true
			}
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if _, typ := namedOf(p.Info.TypeOf(n)); typ != "" {
						for _, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if key, ok := kv.Key.(*ast.Ident); ok {
									mark(typ, key.Name)
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok {
							continue
						}
						s := p.Info.Selections[sel]
						if s == nil || s.Kind() != types.FieldVal {
							continue
						}
						// Walk any embedded path to the struct that owns the
						// field.
						owner := s.Recv()
						for _, i := range s.Index()[:len(s.Index())-1] {
							n, _ := namedOf(owner)
							if n == nil {
								break
							}
							owner = n.Underlying().(*types.Struct).Field(i).Type()
						}
						if _, typ := namedOf(owner); typ != "" {
							mark(typ, sel.Sel.Name)
						}
					}
				}
				return true
			})
		}
		for _, imp := range append(p.Types.Imports(), p.Types) {
			for _, g := range guardedConfigs {
				if imp.Path() != strings.TrimSuffix(g, ".Config") || fields[g] != nil {
					continue
				}
				st := imp.Scope().Lookup("Config").Type().Underlying().(*types.Struct)
				for i := 0; i < st.NumFields(); i++ {
					fields[g] = append(fields[g], st.Field(i).Name())
				}
			}
		}
	}
	for _, g := range guardedConfigs {
		if len(fields[g]) == 0 {
			t.Fatalf("%s not found in the loaded packages", g)
		}
		var missing []string
		for _, fl := range fields[g] {
			if !set[g+"."+fl] {
				missing = append(missing, fl)
			}
		}
		sort.Strings(missing)
		for _, fl := range missing {
			t.Errorf("%s.%s is set by no non-test code outside its package: make it a constant or delete it", g, fl)
		}
	}
}
