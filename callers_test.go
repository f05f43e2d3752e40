package lass_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"

	"lass/internal/analysis"
)

var (
	moduleOnce sync.Once
	modulePkgs []*analysis.Pkg
	moduleErr  error
)

// loadModule type-checks every non-test package of the module, benchmark/
// included, once per test binary.
func loadModule(t *testing.T) []*analysis.Pkg {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	moduleOnce.Do(func() {
		modulePkgs, moduleErr = analysis.Load(".", []string{"./..."}, false)
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return modulePkgs
}

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
	pkgs := loadModule(t)
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

// keptOracles are the declarations only tests call that stay on purpose:
// each is the reference a production path is checked against.
var keptOracles = map[string]string{
	"lass/internal/queuing.RequiredContainers":  "Algorithm 1's upward scan, the reference the warm-started sizing search must match",
	"lass/internal/queuing.MMC.ProbWaitLEExact": "exact M/M/c wait CDF that shows the paper's state-count bound is conservative",
	"lass/internal/queuing.MMC.WaitQuantile":    "exact wait quantile that Algorithm 1's sizing is cross-checked against",
	"lass/internal/queuing.MMC.P0":              "Eq 2, checked against the M/M/1 and Erlang textbook closed forms",
	"lass/internal/queuing.MMC.Pn":              "Eq 1, checked against the M/M/1 closed form",
	"lass/internal/queuing.HetMMC.P0":           "the deflated-pool bound's P0, checked to reduce to Eq 2 at equal rates",
	"lass/internal/queuing.HetMMC.Pn":           "the deflated-pool bound's Pn, checked to reduce to Eq 1 at equal rates",
	"lass/internal/allocation.Allocate":         "one-shot reference the incremental Allocator is fuzzed against",
}

// declKey names a package-level object "path.Name" and a method of a named
// type "path.Type.Name". It returns "" for anything else: locals, fields,
// universe objects and interface methods.
func declKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil {
			n, typ := namedOf(recv.Type())
			if n == nil || types.IsInterface(n) {
				return ""
			}
			return typ + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// isModuleInterfaceMethod reports whether obj is a method of an interface
// declared in this module, whose call dispatches to any concrete method of
// the same name.
func isModuleInterfaceMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Signature().Recv() == nil || !types.IsInterface(fn.Signature().Recv().Type()) {
		return false
	}
	return fn.Pkg().Path() == "lass" || strings.HasPrefix(fn.Pkg().Path(), "lass/")
}

// handedTypes returns the named types an interface's methods take as
// parameters: what a user implementation of it receives and may call.
func handedTypes(iface *types.Interface) []string {
	var out []string
	for i := 0; i < iface.NumMethods(); i++ {
		params := iface.Method(i).Signature().Params()
		for j := 0; j < params.Len(); j++ {
			if _, typ := namedOf(params.At(j).Type()); typ != "" {
				out = append(out, typ)
			}
		}
	}
	return out
}

// TestDeclarationsHaveCallers fails when a package-level func, method,
// type, var or const declared in a non-test file under internal/ is used
// by no non-test file of the module (benchmark/ included). A use inside the
// declaration itself does not count, and a method's mention of its own
// receiver type does not keep the type alive. A const counts when any const
// of its block does. A method counts when a method of its name on an
// interface of this module is called (dynamic dispatch), when it is String
// or Error, or when its type is public API: a parameter of an interface the
// root package re-exports, like the PlacementContext a custom Placer reads.
// keptOracles lists the exceptions.
func TestDeclarationsHaveCallers(t *testing.T) {
	pkgs := loadModule(t)
	declared := make(map[string]token.Position)
	recvOf := make(map[string]string) // method key -> its receiver type's key
	used := make(map[string]bool)
	dynamic := map[string]bool{"String": true, "Error": true}
	exempt := make(map[string]bool) // "path.Type" re-exported by the root package
	var blocks [][]string           // const blocks under internal/

	for _, p := range pkgs {
		internal := strings.HasPrefix(p.Path, "lass/internal/")
		// scan marks every use in n that is not one of owners.
		scan := func(n ast.Node, owners ...string) {
			ast.Inspect(n, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := p.Info.Uses[id]
				if isModuleInterfaceMethod(obj) {
					dynamic[obj.Name()] = true
				}
				if k := declKey(obj); k != "" {
					for _, o := range owners {
						if k == o {
							return true
						}
					}
					used[k] = true
				}
				return true
			})
		}
		declare := func(id *ast.Ident) string {
			k := declKey(p.Info.Defs[id])
			if internal && k != "" && id.Name != "_" && id.Name != "init" {
				declared[k] = p.Fset.Position(id.Pos())
			}
			return k
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					k := declare(d.Name)
					owners := []string{k}
					if d.Recv != nil {
						_, typ := namedOf(p.Info.Defs[d.Name].Type().(*types.Signature).Recv().Type())
						recvOf[k] = typ
						owners = append(owners, typ)
					}
					scan(d, owners...)
				case *ast.GenDecl:
					var block []string
					for _, spec := range d.Specs {
						var owners []string
						switch s := spec.(type) {
						case *ast.TypeSpec:
							owners = append(owners, declare(s.Name))
							if p.Path == "lass" && s.Assign.IsValid() {
								if iface, ok := p.Info.Defs[s.Name].Type().Underlying().(*types.Interface); ok {
									for _, typ := range handedTypes(iface) {
										exempt[typ] = true
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								owners = append(owners, declare(id))
							}
						}
						if d.Tok == token.CONST {
							block = append(block, owners...)
						}
						scan(spec, owners...)
					}
					if internal && len(block) > 1 {
						blocks = append(blocks, block)
					}
				}
			}
		}
	}
	for _, block := range blocks {
		for _, k := range block {
			if used[k] {
				for _, m := range block {
					used[m] = true
				}
				break
			}
		}
	}

	var dead []string
	for k := range declared {
		if used[k] {
			continue
		}
		if recv, ok := recvOf[k]; ok && (dynamic[strings.TrimPrefix(k, recv+".")] || exempt[recv]) {
			continue
		}
		if _, ok := keptOracles[k]; ok {
			continue
		}
		dead = append(dead, k)
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s: %s is used by no non-test code: delete it or move it into the test that needs it", declared[k], k)
	}
	for k := range keptOracles {
		if _, ok := declared[k]; !ok {
			t.Errorf("keptOracles lists %s, which is not declared under internal/", k)
		} else if used[k] {
			t.Errorf("keptOracles lists %s, which non-test code uses: drop the entry", k)
		}
	}
	if len(keptOracles) > 8 {
		t.Errorf("keptOracles has %d entries; keep at most 8", len(keptOracles))
	}
}
