// Command gen regenerates placer_names_gen.go, the committed list of
// built-in placement-policy names that command-line usage strings (the
// lass-sim -policy flag) embed. It reads the live registry — at generation
// time only the built-ins are registered — and writes the file through
// go/format, so the CI gofmt gate holds for generated code too; the
// federation test suite fails when the committed list drifts from the
// registry. Run via go generate ./internal/federation.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"

	"lass/internal/federation"
)

func main() {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `// Code generated by "go generate ./internal/federation" (gen/main.go); DO NOT EDIT.

package federation

// BuiltinPlacerNames lists the built-in placement policies in sweep order.
// Command-line surfaces (the lass-sim -policy usage string) embed it, and
// the experiment goldens keep only these policies' rows.
var BuiltinPlacerNames = %#v
`, federation.PlacerNames())
	src, err := format.Source(buf.Bytes())
	if err != nil {
		log.Fatalf("gen: format: %v", err)
	}
	if err := os.WriteFile("placer_names_gen.go", src, 0o644); err != nil {
		log.Fatalf("gen: write: %v", err)
	}
	fmt.Println("wrote placer_names_gen.go")
}
