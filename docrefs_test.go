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

// topLevelDoc matches a bare upper-case Markdown file name (README.md) —
// not one inside a path such as benchmark/README.md.
var topLevelDoc = regexp.MustCompile(`(?:^|[^/\w.-])([A-Z][A-Z_a-z0-9-]*\.md)\b`)

// eachCommentGroup parses every Go file of the repository and hands fn each
// comment group's text (markers stripped, lines joined) with its position.
func eachCommentGroup(t *testing.T, fn func(pos token.Position, text string)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range f.Comments {
			fn(fset.Position(group.Pos()), group.Text())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommentsCiteExistingDocs fails when a Go comment anywhere in the
// repository points the reader at a top-level *.md that is not there.
func TestCommentsCiteExistingDocs(t *testing.T) {
	eachCommentGroup(t, func(pos token.Position, text string) {
		for _, m := range topLevelDoc.FindAllStringSubmatch(text, -1) {
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("%s: comment cites %s, which is not in the repository", pos, m[1])
			}
		}
	})
}

// flagCitation matches one of the flag-driven commands followed by the
// flags a text passes it: each flag may take one value, and the first word
// that is neither ends the citation (so prose after the command is not
// scanned).
var flagCitation = regexp.MustCompile(`\b(lass-sim|lass-bench|lass-trace)((?:\s+\[?-[a-z][\w-]*(?:[ =][^\s-]\S*)?)+)`)

var citedFlag = regexp.MustCompile(`(?:^|\s|\[)-([a-z][\w-]*)`)

// definedFlags collects the names a command registers, from the
// flags.<Type>("name", default, usage) calls in its main.go.
func definedFlags(t *testing.T, command string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", command, "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); !ok || (recv.Name != "flags" && recv.Name != "flag") {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names[name] = true
			}
		}
		return true
	})
	if len(names) == 0 {
		t.Fatalf("found no flag definitions in cmd/%s/main.go", command)
	}
	return names
}

// TestDocsCiteDefinedFlags fails when README.md, the verify skill, or a Go
// comment shows lass-sim, lass-bench or lass-trace with a flag that command
// does not define — a deleted flag must leave the documentation with it.
func TestDocsCiteDefinedFlags(t *testing.T) {
	defined := map[string]map[string]bool{
		"lass-sim":   definedFlags(t, "lass-sim"),
		"lass-bench": definedFlags(t, "lass-bench"),
		"lass-trace": definedFlags(t, "lass-trace"),
	}
	// check reports every undefined flag text cites, naming the line
	// (counted from firstLine) the command sits on, and returns how many
	// citations it looked at.
	check := func(file string, firstLine int, text string) (cited int) {
		for _, m := range flagCitation.FindAllStringSubmatchIndex(text, -1) {
			command, flags := text[m[2]:m[3]], text[m[4]:m[5]]
			line := firstLine + strings.Count(text[:m[0]], "\n")
			for _, fl := range citedFlag.FindAllStringSubmatch(flags, -1) {
				cited++
				if !defined[command][fl[1]] {
					t.Errorf("%s:%d: cites %s -%s, which cmd/%s/main.go does not define",
						file, line, command, fl[1], command)
				}
			}
		}
		return cited
	}
	for _, doc := range []string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if check(doc, 1, string(src)) == 0 {
			t.Errorf("%s: found no lass-sim / lass-bench flag citation; the matcher has rotted", doc)
		}
	}
	eachCommentGroup(t, func(pos token.Position, text string) { check(pos.Filename, pos.Line, text) })
}
