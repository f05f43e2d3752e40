package lass_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// topLevelDoc matches a bare upper-case Markdown file name (README.md) —
// not one inside a path such as benchmark/README.md.
var topLevelDoc = regexp.MustCompile(`(?:^|[^/\w.-])([A-Z][A-Z_a-z0-9-]*\.md)\b`)

// TestCommentsCiteExistingDocs fails when a Go comment anywhere in the
// repository points the reader at a top-level *.md that is not there.
func TestCommentsCiteExistingDocs(t *testing.T) {
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
			for _, c := range group.List {
				for _, m := range topLevelDoc.FindAllStringSubmatch(c.Text, -1) {
					if _, err := os.Stat(m[1]); err != nil {
						t.Errorf("%s: comment cites %s, which is not in the repository",
							fset.Position(c.Pos()), m[1])
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
