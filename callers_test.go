package lass_test

import (
	"fmt"
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

	usesOnce sync.Once
	usesAll  map[string]bool
	usesErr  error
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

// usedWithTests returns the declKey of every object any file of the module
// uses, test files included, from a second type-check.
func usedWithTests(t *testing.T) map[string]bool {
	t.Helper()
	usesOnce.Do(func() {
		var pkgs []*analysis.Pkg
		if pkgs, usesErr = analysis.Load(".", []string{"./..."}, true); usesErr != nil {
			return
		}
		usesAll = make(map[string]bool)
		for _, p := range pkgs {
			for _, obj := range p.Info.Uses {
				if k := declKey(obj); k != "" {
					usesAll[k] = true
				}
			}
		}
	})
	if usesErr != nil {
		t.Fatal(usesErr)
	}
	return usesAll
}

// guardedConfigs are the configuration structs whose every field must have
// a real caller.
var guardedConfigs = []string{
	"lass/internal/azure.SynthConfig",
	"lass/internal/baseline.Config",
	"lass/internal/chaos.Config",
	"lass/internal/cluster.Config",
	"lass/internal/controller.Config",
	"lass/internal/controller.DualWindowConfig",
	"lass/internal/core.Config",
	"lass/internal/core.FunctionConfig",
	"lass/internal/federation.Config",
	"lass/internal/queuing.SLO",
	"lass/internal/realtime.Config",
}

// keptFields are the guarded fields only tests set that stay on purpose.
var keptFields = map[string]string{
	"lass/internal/core.FunctionConfig.TimeLimit": "the benchmark's sim_digest hashes the cloud's timed-out count, so removing the hard execution limit must wait for a change that may move the benchmark",
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

// TestConfigFieldsHaveCallers fails when a field of a guarded config is set
// — by a keyed composite literal or by an assignment — in no non-test Go
// file outside its declaring package (benchmark/ included). A knob only
// tests set has one value in use, so it belongs in a constant. Fields are
// matched through the type checker, never by name, so a like-named field
// of another struct does not count. keptFields lists the exceptions.
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
				dot := strings.LastIndex(g, ".")
				if imp.Path() != g[:dot] || fields[g] != nil {
					continue
				}
				st := imp.Scope().Lookup(g[dot+1:]).Type().Underlying().(*types.Struct)
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
			if _, kept := keptFields[g+"."+fl]; !kept && !set[g+"."+fl] {
				missing = append(missing, fl)
			}
		}
		sort.Strings(missing)
		for _, fl := range missing {
			t.Errorf("%s.%s is set by no non-test code outside its package: make it a constant or delete it", g, fl)
		}
	}
	for k := range keptFields {
		if set[k] {
			t.Errorf("keptFields lists %s, which non-test code sets: drop the entry", k)
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
// or Error, or when its type is public API — a parameter of an interface the
// root package re-exports, like the PlacementContext a custom Placer reads —
// and some file of the module, tests included, uses it. keptOracles lists
// the exceptions.
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
		if recv, ok := recvOf[k]; ok && (dynamic[strings.TrimPrefix(k, recv+".")] || exempt[recv] && usedWithTests(t)[k]) {
			continue
		}
		if _, ok := keptOracles[k]; ok {
			continue
		}
		dead = append(dead, k)
	}
	sort.Strings(dead)
	for _, k := range dead {
		if exempt[recvOf[k]] {
			t.Errorf("%s: %s is public API that no file of the module uses, tests included: give it a use or delete it", declared[k], k)
			continue
		}
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

// keptGlobals are the package-level variables holding sync state that stay
// on purpose, keyed by declKey.
var keptGlobals = map[string]string{
	"lass/internal/queuing.sizingMemo":   "only benchmark/ reads it, through MinimalContainersFrom; the benchmark change that gives those callers their own Sizers deletes it",
	"lass/internal/queuing.logFactCache": "a grow-only table of log k! that no run can observe",
}

// TestNoSharedGlobals fails on a package-level variable declared in a
// non-test file under internal/ whose type holds a sync or sync/atomic
// value anywhere inside it. A lock or an atomic at package level guards
// state every caller in the process shares, so one run's warm scratch or
// cache leaks into the next run or test: scratch belongs to the handle
// that uses it. keptGlobals lists the exceptions.
func TestNoSharedGlobals(t *testing.T) {
	found := make(map[string]bool)
	for _, p := range loadModule(t) {
		if !strings.HasPrefix(p.Path, "lass/internal/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			v, ok := scope.Lookup(name).(*types.Var)
			if !ok || !holdsSync(v.Type(), make(map[types.Type]bool)) {
				continue
			}
			k := declKey(v)
			found[k] = true
			if _, kept := keptGlobals[k]; !kept {
				t.Errorf("%s: %s is process-wide shared state (%s): move it onto the handle that uses it", p.Fset.Position(v.Pos()), k, v.Type())
			}
		}
	}
	for k := range keptGlobals {
		if !found[k] {
			t.Errorf("keptGlobals lists %s, which is no package-level variable holding sync state under internal/: drop the entry", k)
		}
	}
}

// holdsSync reports whether a value of type typ contains a type of package
// sync or sync/atomic: itself, in a field or an array element, or behind a
// pointer, slice, map or channel. seen cuts recursive types short.
func holdsSync(typ types.Type, seen map[types.Type]bool) bool {
	if seen[typ] {
		return false
	}
	seen[typ] = true
	switch u := types.Unalias(typ).(type) {
	case *types.Named:
		if pkg := u.Obj().Pkg(); pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic") {
			return true
		}
		return holdsSync(u.Underlying(), seen)
	case *types.Struct:
		for i := range u.NumFields() {
			if holdsSync(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Map:
		return holdsSync(u.Key(), seen) || holdsSync(u.Elem(), seen)
	case interface{ Elem() types.Type }: // pointer, array, slice, channel
		return holdsSync(u.Elem(), seen)
	}
	return false
}

// keptConstants are the parameters every non-test call passes the same
// constant that stay on purpose, keyed "declKey.param".
var keptConstants = map[string]string{
	"lass/internal/analysis.Annotations.Sanctioned.tag":    "OnLine and FuncHas, which it combines, take any tag; only the wallclock check needs both today",
	"lass/internal/baseline.Platform.Register.sloDeadline": "the deadline the baseline provisions against; its tests register 100 ms, 500 ms and 1 s",
	"lass/internal/sim.Engine.EveryFrom.start":             "the federation's start-0 call fires at once, unlike Every; the sim tests pin later and past starts",
	"lass/internal/workload.Schedule.ExpectedCount.from":   "its only caller is the benchmark's replay, which must not change outside a benchmark change",
	"lass/internal/controller.NewEWMA.alpha":               "the estimator tests exercise the smoother at other weights and its range check",
	"lass/internal/queuing.RequiredContainersGGC.ca2":      "the Allen-Cunneen arrival variability; the solver tests size bursty arrivals (ca2 = 4) and reject non-finite ones",
}

// TestParametersVary fails when a parameter of a function or method
// declared in a non-test file under internal/ receives the same constant
// at every non-test call site of the module (benchmark/ included), unless
// the function is also used as a value, where a caller the type checker
// cannot see may pass anything. Such a parameter is a constant in
// disguise: it belongs in the function body. keptConstants lists the
// exceptions. Variadic parameters and calls that spread a multi-value
// call over the parameters are not judged.
func TestParametersVary(t *testing.T) {
	pkgs := loadModule(t)
	type param struct {
		name   string
		value  string // the constant every call so far passed
		varies bool
	}
	calls := make(map[string][]param) // declKey -> per-parameter state
	asValue := make(map[string]bool)
	for _, p := range pkgs {
		callee := make(map[*ast.Ident]bool) // identifiers in a call's function position
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
					id, ok = sel.Sel, true
				}
				if !ok {
					return true
				}
				fn, ok := p.Info.Uses[id].(*types.Func)
				if !ok || !strings.HasPrefix(declKey(fn), "lass/internal/") {
					return true
				}
				k := declKey(fn)
				callee[id] = true
				sig := fn.Origin().Signature()
				np := sig.Params().Len()
				if sig.Variadic() {
					np--
				}
				ps := calls[k]
				if ps == nil {
					ps = make([]param, np)
					for i := range ps {
						ps[i] = param{name: sig.Params().At(i).Name(), value: "?"}
					}
					calls[k] = ps
				}
				spread := len(call.Args) < np // f(g()) with a multi-value g
				for i := range ps {
					var tv types.TypeAndValue
					if !spread {
						tv = p.Info.Types[call.Args[i]]
					}
					switch {
					case tv.Value == nil:
						ps[i].varies = true
					case ps[i].value == "?":
						ps[i].value = tv.Value.ExactString()
					case ps[i].value != tv.Value.ExactString():
						ps[i].varies = true
					}
				}
				return true
			})
		}
		for id, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && !callee[id] {
				asValue[declKey(fn)] = true
			}
		}
	}
	var found []string
	for k, ps := range calls {
		if asValue[k] {
			continue
		}
		for _, pr := range ps {
			if !pr.varies {
				found = append(found, fmt.Sprintf("%s.%s = %s", k, pr.name, pr.value))
			}
		}
	}
	sort.Strings(found)
	seen := make(map[string]bool)
	for _, c := range found {
		key := c[:strings.Index(c, " = ")]
		seen[key] = true
		if _, kept := keptConstants[key]; !kept {
			t.Errorf("%s at every non-test call: make it a constant in the body or give it a caller that varies it", c)
		}
	}
	for k := range keptConstants {
		if !seen[k] {
			t.Errorf("keptConstants lists %s, which no longer gets one constant everywhere: drop the entry", k)
		}
	}
}
