package lass_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// facadeUsers are the Go sources whose lass.X selectors count as callers of
// the facade: the examples and the commands. The facade's own test does not
// count, or every name it tests would keep itself alive.
func facadeUsers(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// markSelectors records every X a Go file selects from its import of the
// facade package.
func markSelectors(t *testing.T, path string, used map[string]bool) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	local := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "lass" {
			local = "lass"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				used[sel.Sel.Name] = true
			}
		}
		return true
	})
}

var (
	readmeCode  = regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	readmeToken = regexp.MustCompile(`(^|[^.\w])([A-Z]\w*)\b(:?)`)
)

// markReadme records the identifiers README.md shows as code — inside a
// fenced block or an inline span — except struct-literal keys (X:) and
// field selections (.X), which name fields, not facade declarations.
func markReadme(t *testing.T, used map[string]bool) {
	t.Helper()
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range readmeCode.FindAllString(string(src), -1) {
		for _, m := range readmeToken.FindAllStringSubmatch(code, -1) {
			if m[3] == "" {
				used[m[2]] = true
			}
		}
	}
	for _, m := range regexp.MustCompile(`\blass\.([A-Z]\w*)`).FindAllStringSubmatch(string(src), -1) {
		used[m[1]] = true
	}
}

// TestFacadeNamesHaveCallers fails when an exported name declared in
// lass.go is referenced by no example, command or README code,
// so the facade re-exports what its users touch rather than regrowing
// "for completeness". A constant counts as referenced when any constant
// in its const block is, and a type when a referenced function of lass.go
// needs it to name a parameter or result.
func TestFacadeNamesHaveCallers(t *testing.T) {
	used := make(map[string]bool)
	for _, path := range facadeUsers(t) {
		markSelectors(t, path, used)
	}
	markReadme(t, used)

	f, err := parser.ParseFile(token.NewFileSet(), "lass.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil || !d.Name.IsExported() {
				continue
			}
			declared = append(declared, d.Name.Name)
			if !used[d.Name.Name] {
				continue
			}
			ast.Inspect(d.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					used[id.Name] = true
				}
				return true
			})
		case *ast.GenDecl:
			var names []string
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						names = append(names, id.Name)
					}
				}
			}
			if d.Tok == token.CONST {
				for _, n := range names {
					if used[n] {
						for _, m := range names {
							used[m] = true
						}
						break
					}
				}
			}
			for _, n := range names {
				if ast.IsExported(n) {
					declared = append(declared, n)
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no exported declarations in lass.go")
	}
	for _, n := range declared {
		if !used[n] {
			t.Errorf("lass.go exports %s, which no example, command or README code references", n)
		}
	}
}
